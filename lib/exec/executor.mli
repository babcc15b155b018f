(** The executor: evaluates logical plans against the catalog and runs
    step programs — the runtime half of the paper's §VI, including the
    [loop] operator's Metadata / Data / Delta termination modes and the
    O(1) [rename]. *)

module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program

(** The same exception as {!Interp.Execution_error}. *)
exception Execution_error of string

(** Evaluate one logical plan. Scans resolve through the catalog with
    temps shadowing base tables. [?parallel] enables chunk-parallel
    filter/project/hash-probe; results and logical stats counters are
    identical to sequential execution. [?guards] threads periodic
    in-operator probes ({!Guards.tick}) through the long row loops so a
    single giant statement honors timeouts and interrupts.
    [?columnar] routes filter/project/hash-probe/aggregate through the
    vectorized batch paths ({!Vec_eval} kernels over
    {!Dbspinner_storage.Colbatch} columns under selection vectors);
    results and logical stats are bit-identical to the row engine.
    @raise Execution_error on missing relations or runtime failures. *)
val run_plan :
  ?parallel:Parallel.ctx ->
  ?cache:Cache.t ->
  ?guards:Guards.t ->
  ?columnar:bool ->
  stats:Stats.t ->
  Catalog.t ->
  Logical.t ->
  Relation.t

(** The §II duplicate-row-key check: fails when the named temp has
    duplicate or NULL keys in column [key_idx].
    @raise Execution_error with a message directing the user to resolve
    duplicates via aggregation. *)
val assert_unique_key : Catalog.t -> temp:string -> key_idx:int -> unit

(** The single-node {!Interp.backend}: temps live in the catalog,
    plans run through {!run_plan} with a fresh per-run {!Cache} when
    [use_cache] (default true), gather and scatter are the identity,
    and every exception propagates. *)
val backend :
  ?parallel:Parallel.ctx ->
  ?guards:Guards.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  stats:Stats.t ->
  Catalog.t ->
  Relation.t Interp.backend

(** Run a step program to completion on {!Interp} with the single-node
    {!backend} and return the final relation. Temps created by the
    program are left in the catalog (the engine clears them per
    statement). [guards] are checked at materialize and loop
    boundaries, plus periodic in-operator probes every
    {!Guards.probe_interval} rows inside long operator loops.

    [Delta_materialize] steps run semi-naive (delta-driven) evaluation:
    the CTE version is diffed against the previous iteration's, only
    rows whose key is affected by the change are re-evaluated through
    the restricted plan, and untouched keys reuse the previous work
    output — producing a relation bit-identical to the full plan's.
    The first iteration (no previous version) and iterations where most
    keys changed fall back to the full plan ([Stats.full_reevals]).

    [use_cache] (default true) enables a per-run iteration-aware
    {!Cache}: loop-invariant join builds and subquery digests are
    memoized under source generations, and expressions are closure-
    compiled once per run. [columnar] (default false) routes the hot
    operators through the vectorized batch paths; see {!run_plan}.
    Results and logical stats are identical either way.

    [trace] records the interpreter's spans; see {!Interp.run}.
    @raise Execution_error on runtime failures, including the
    iteration-guard trip for non-converging loops
    @raise Guards.Resource_exhausted when a deadline or row budget is
    crossed. *)
val run_program :
  ?parallel:Parallel.ctx ->
  ?stats:Stats.t ->
  ?guards:Guards.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  ?trace:Dbspinner_obs.Trace.t ->
  Catalog.t ->
  Program.t ->
  Relation.t

(** Convenience: run with a fresh {!Stats.t} and return it. *)
val run_program_with_stats :
  ?parallel:Parallel.ctx ->
  ?guards:Guards.t ->
  ?use_cache:bool ->
  ?columnar:bool ->
  ?trace:Dbspinner_obs.Trace.t ->
  Catalog.t ->
  Program.t ->
  Relation.t * Stats.t
