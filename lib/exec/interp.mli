(** The step-program interpreter (paper §VI): program counter, loop
    state, the [loop] operator's Metadata / Data / Delta termination,
    the semi-naive delta protocol, the §II key check and all trace-span
    emission, written once over a small {!backend}. The single-node
    {!Executor} and {!Dbspinner_mpp.Distributed} are its two backends. *)

module Relation = Dbspinner_storage.Relation
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program

exception Execution_error of string

(** Raise {!Execution_error} with a formatted message. *)
val error : ('a, unit, string, 'b) format4 -> 'a

(** The interpreter's state during one program run. *)
type machine

(** Index of the step about to run. *)
val pc : machine -> int

(** Highest iteration count over the program's loops so far. *)
val iteration : machine -> int

(** A restart point: a program counter plus copies of every loop's
    state (counters, snapshot, delta baselines). Relations are
    immutable, so taking one is O(loops). *)
type checkpoint

(** Program start: pc 0, no loops. *)
val start : checkpoint

(** The state after the current step: resumes where that step goes
    next. *)
val checkpoint : machine -> checkpoint

(** Where relations live and how plans run. ['r] is the backend's
    relation type; [gather] and [scatter] convert to and from the
    single relation the interpreter's own passes (termination check,
    delta diff and stitch, key check, [Return]) read. *)
type 'r backend = {
  eval : Logical.t -> 'r;
  find_temp : string -> 'r option;
  set_temp : string -> 'r -> unit;
  rename_temp : from_:string -> into:string -> unit;
      (** @raise Dbspinner_storage.Catalog.Unknown_table when [from_]
          is absent *)
  drop_temp : string -> unit;
  cardinality : 'r -> int;
  gather : 'r -> Relation.t;
  scatter : Relation.t -> 'r;
  recursive_cte :
    name:string ->
    work_name:string ->
    base:Logical.t ->
    step_plan:Logical.t ->
    union_all:bool ->
    max_recursion:int ->
    unit;
  before_step : machine -> unit;  (** called before every step *)
  loop_end : machine -> unit;
      (** called after every [Loop_end], once the loop has decided
          where to go next: the checkpoint hook *)
  recover : exn -> recovery;
      (** consulted when a step raises; no Step span is emitted for
          the failed attempt *)
}

and recovery =
  | Reraise  (** propagate the exception *)
  | Resume of checkpoint  (** restore the loop states and pc, go on *)
  | Rerun of Relation.t backend
      (** run the whole program again on another backend; its result is
          this run's result *)

(** The §II duplicate-row-key check over column [key_idx].
    @raise Execution_error on a NULL or duplicate key, directing the
    user to resolve duplicates via aggregation. *)
val check_unique_key : Relation.t -> key_idx:int -> unit

(** Run [program] to its [Return] on backend [b]. [guards] are checked
    at materialize and loop boundaries. [trace], when given, records
    one span per executed step, per loop iteration (with the CTE
    cardinality, delta and cumulative-update gauges), per operator
    family and one for the program — including across [Resume] and
    [Rerun] recoveries. The untraced path does no tracing work, and the
    traced path only pure reads, so traced and untraced runs stay
    [Stats.logical_equal].
    @raise Execution_error on runtime failures, including the
    iteration-guard trip for non-converging loops
    @raise Guards.Resource_exhausted when a deadline or row budget is
    crossed. *)
val run :
  stats:Stats.t ->
  guards:Guards.t ->
  ?trace:Dbspinner_obs.Trace.t ->
  'r backend ->
  Program.t ->
  Relation.t
