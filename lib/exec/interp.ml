(** The step-program interpreter — the runtime half of the paper's §VI:
    program counter, loop state, termination check, the semi-naive
    delta protocol, the §II key check and every trace span. It runs
    over a small {!backend} that owns how relations are stored and how
    plans are evaluated; the single-node {!Executor} and the simulated
    distributed executor are both backends of this one interpreter. *)

module Value = Dbspinner_storage.Value
module Row = Dbspinner_storage.Row
module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Trace = Dbspinner_obs.Trace

exception Execution_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Loop state (paper §VI-B)                                            *)

type loop_state = {
  spec : Program.termination;
  cte : string;
  key_idx : int;
  guard : int;
  mutable iterations : int;
  mutable cumulative_updates : int;
  mutable snapshot : Relation.t option;
      (** CTE version at the top of the current iteration *)
  mutable iter_mark : (float * Stats.t) option;
      (** tracing only: wall clock and stats snapshot at the start of
          the current iteration, so the iteration span can carry its
          own deltas. [None] whenever tracing is off. *)
  mutable d_prev_cte : Relation.t option;
      (** semi-naive only: CTE version consumed by the previous
          iteration's [Delta_materialize], diffed against the current
          version to find changed keys. Distinct from [snapshot]: the
          snapshot feeds termination accounting and is taken at the top
          of the body, while this one is updated by the delta step
          itself, so a program may use either, both or neither. *)
  mutable d_prev_work : Relation.t option;
      (** semi-naive only: the previous iteration's work output, reused
          for unaffected keys when stitching. *)
  mutable d_cutoff_streak : int;
      (** consecutive iterations whose diff hit the large-delta cutoff;
          at {!delta_cutoff_streak_limit} the loop stops diffing
          entirely (PageRank-style loops update every key every
          iteration — without the streak they would pay an O(|CTE|)
          diff per iteration just to learn that, every time). *)
}

(** Consecutive large-delta cutoffs after which a loop permanently
    falls back to full re-evaluation. Deterministic (purely
    data-driven), so every backend makes the same decision and stats
    stay comparable across them. *)
let delta_cutoff_streak_limit = 3

(* Every field is either immutable or a pointer to an immutable value
   (relations, the trace-mark pair), so a shallow copy is a complete
   checkpoint of one loop. After a restore the mark predates the fault,
   so the retried iteration's span absorbs the fault/retry counters. *)
let copy_loop_state (st : loop_state) = { st with iterations = st.iterations }

type machine = {
  steps : Program.step array;
  loops : (int, loop_state) Hashtbl.t;
  mutable pc : int;
  mutable next_pc : int;
  mutable rows : int;  (** Step-span gauges of the current step *)
  mutable delta : int;
  mutable result : Relation.t option;
}

let pc m = m.pc
let iteration m = Hashtbl.fold (fun _ st acc -> max acc st.iterations) m.loops 0

(** A restart point: the program counter to resume at plus copies of
    the loop states. *)
type checkpoint = { ck_pc : int; ck_loops : (int * loop_state) list }

let start = { ck_pc = 0; ck_loops = [] }

let checkpoint m =
  {
    ck_pc = m.next_pc;
    ck_loops =
      Hashtbl.fold (fun id st acc -> (id, copy_loop_state st) :: acc) m.loops [];
  }

let restore m ck =
  Hashtbl.reset m.loops;
  List.iter
    (fun (id, st) -> Hashtbl.replace m.loops id (copy_loop_state st))
    ck.ck_loops;
  m.pc <- ck.ck_pc

type 'r backend = {
  eval : Logical.t -> 'r;
  find_temp : string -> 'r option;
  set_temp : string -> 'r -> unit;
  rename_temp : from_:string -> into:string -> unit;
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
  before_step : machine -> unit;
  loop_end : machine -> unit;
  recover : exn -> recovery;
}

and recovery =
  | Reraise
  | Resume of checkpoint
  | Rerun of Relation.t backend

let find b name =
  match b.find_temp name with
  | Some r -> r
  | None -> raise (Catalog.Unknown_table name)

let find_loop m what loop_id =
  match Hashtbl.find_opt m.loops loop_id with
  | Some st -> st
  | None -> error "%s for uninitialized loop %d" what loop_id

let step_label = function
  | Program.Materialize { target; _ } -> "materialize:" ^ target
  | Program.Delta_materialize { target; _ } -> "delta_materialize:" ^ target
  | Program.Rename { from_; into } -> "rename:" ^ from_ ^ "->" ^ into
  | Program.Drop_temp name -> "drop:" ^ name
  | Program.Assert_unique_key { temp; _ } -> "assert_unique:" ^ temp
  | Program.Init_loop { cte; _ } -> "init_loop:" ^ cte
  | Program.Snapshot { loop_id } -> Printf.sprintf "snapshot:%d" loop_id
  | Program.Loop_end { loop_id; _ } -> Printf.sprintf "loop_end:%d" loop_id
  | Program.Recursive_cte { name; _ } -> "recursive_cte:" ^ name
  | Program.Return _ -> "return"

let check_unique_key rel ~key_idx =
  (* [key_values] reads whichever view is materialized, so a columnar
     pipeline is not forced into a full row conversion just to check
     one column. *)
  let keys = Relation.key_values rel key_idx in
  let seen = Hashtbl.create (Array.length keys) in
  Array.iter
    (fun k ->
      if Value.is_null k then
        error
          "iterative CTE produced a NULL row key; specify a key column or \
           remove NULL keys"
      else if Hashtbl.mem seen k then
        error
          "iterative CTE produced duplicate rows for key %s; resolve \
           duplicates with an aggregation or GROUP BY (see paper §II)"
          (Value.to_string k)
      else Hashtbl.replace seen k ())
    keys

(* ------------------------------------------------------------------ *)
(* Termination (paper §VI-B)                                           *)

(** Decide whether another iteration is needed, updating counters, and
    return the continue flag.

    First-iteration semantics, load-bearing and regression-tested in
    [test_exec.ml]: when [st.snapshot = None] (no [Snapshot] step has
    run for this loop — hand-built programs, or a [Max_iterations] loop
    whose untraced [Snapshot] skips the read) the "delta" is the
    {e full} CTE cardinality, because with no previous version every
    row counts as updated. Consequently [Max_updates n] charges the
    whole first materialization against its budget, and
    [Delta_at_most 0] can never converge without a snapshot — even on
    already-converged input — until the guard trips. Compiled programs
    always emit [Snapshot] at the top of the loop body, so user queries
    get true deltas from iteration 2 on; the first iteration still
    counts full cardinality (snapshot of a not-yet-materialized CTE is
    [None]). A refactor that made the first delta 0 would silently let
    [UNTIL DELTA] loops terminate one iteration early.

    [updates] is lazy and pure (cardinality / delta_count touch no
    stats), so forcing it for the trace cannot perturb logical
    counters. *)
let loop_continue ~current ~updates (st : loop_state) =
  let continue_ =
    match st.spec with
    | Program.Max_iterations n -> st.iterations < n
    | Program.Max_updates n ->
      st.cumulative_updates <- st.cumulative_updates + Lazy.force updates;
      st.cumulative_updates < n
    | Program.Delta_at_most bound -> Lazy.force updates > bound
    | Program.Data { any; pred } ->
      let rel = current () in
      let satisfied = ref 0 in
      Relation.iter (fun r -> if Eval.eval_pred r pred then incr satisfied) rel;
      (* ALL over an empty relation is vacuously true: a CTE that
         drains to empty must stop, not spin until the guard trips. *)
      let stop =
        if any then !satisfied > 0 else !satisfied = Relation.cardinality rel
      in
      not stop
  in
  (* The guard trips only when another iteration would actually run: a
     loop whose termination fires exactly on the guard iteration
     returns its result instead of erroring. *)
  if continue_ && st.iterations >= st.guard then
    error
      "iterative CTE %s exceeded the %d-iteration guard without meeting its \
       termination condition"
      st.cte st.guard;
  continue_

(* ------------------------------------------------------------------ *)
(* Semi-naive delta protocol                                           *)

(** Stitch in CTE order, one key at a time: recomputed rows for
    affected keys, the previous work row otherwise. Eligible plans emit
    output in driver (CTE) key order, so this reproduces the full
    evaluation bit for bit — including rows-per-key multiplicities, so
    a duplicate-key plan still trips [Assert_unique_key] exactly as it
    would have. *)
let stitch ~key_idx ~cur ~prev_work ~affected restricted =
  let by_key : (Value.t, Row.t list) Hashtbl.t = Hashtbl.create 64 in
  Relation.iter
    (fun r ->
      let k = r.(key_idx) in
      let rest = try Hashtbl.find by_key k with Not_found -> [] in
      Hashtbl.replace by_key k (r :: rest))
    restricted;
  let out = ref [] in
  let push row = out := row :: !out in
  let push_recomputed k =
    List.iter push (List.rev (try Hashtbl.find by_key k with Not_found -> []))
  in
  let cur_rows = Relation.rows cur in
  let prev_rows = Relation.rows prev_work in
  let n_cur = Array.length cur_rows in
  (* Fast path: when the previous output lists the same keys at the
     same positions (the steady state of an iterative loop, whose key
     sequence is stable and — per the §II requirement, enforced by
     [Assert_unique_key] — duplicate-free), unaffected rows are copied
     by index with no hashing. *)
  let rec aligned i =
    i >= n_cur
    || Value.equal cur_rows.(i).(key_idx) prev_rows.(i).(key_idx)
       && aligned (i + 1)
  in
  if Array.length prev_rows = n_cur && aligned 0 then
    Array.iteri
      (fun i r ->
        let k = r.(key_idx) in
        if Hashtbl.mem affected k then push_recomputed k else push prev_rows.(i))
      cur_rows
  else begin
    let prev_by_key = Hashtbl.create 64 in
    Array.iter
      (fun r ->
        if not (Hashtbl.mem prev_by_key r.(key_idx)) then
          Hashtbl.replace prev_by_key r.(key_idx) r)
      prev_rows;
    let seen_keys = Hashtbl.create n_cur in
    Array.iter
      (fun r ->
        let k = r.(key_idx) in
        if not (Hashtbl.mem seen_keys k) then begin
          Hashtbl.replace seen_keys k ();
          if Hashtbl.mem affected k then push_recomputed k
          else Option.iter push (Hashtbl.find_opt prev_by_key k)
        end)
      cur_rows
  end;
  Relation.make (Relation.schema prev_work) (Array.of_list (List.rev !out))

(** One [Delta_materialize]: diff the CTE against the version the
    previous iteration consumed and re-evaluate only the affected keys,
    or fall back to the full plan. Returns the work relation, identical
    to the full plan's. Plans run on the backend; the diff and stitch
    run over gathered relations (they are cheap hash passes). *)
let delta_materialize ~stats b st ~key_idx ~cur ~full_plan ~restricted_plan
    ~affected_plans ~delta_name ~affected_name =
  let eval p = b.gather (b.eval p) in
  let full_eval () =
    stats.Stats.full_reevals <- stats.Stats.full_reevals + 1;
    eval full_plan
  in
  let work =
    match st.d_prev_cte, st.d_prev_work with
    | Some prev, Some prev_work -> (
      (* Cutoff: when at least half the keys changed, restriction buys
         nothing — the extra diff/stitch passes would make the
         iteration slower than a plain re-evaluation (PageRank updates
         every key every iteration and takes this path). The bounded
         diff abandons the scan — and skips building the delta
         relation entirely — the moment the distinct changed-key count
         reaches the cutoff. [max 1] keeps the decision order of the
         unbounded diff: a zero-change scan must fall through to the
         empty-delta fast path, not report a cutoff. *)
      let cutoff = max 1 ((Relation.cardinality cur + 1) / 2) in
      match Relation.changed_rows_bounded ~key_idx ~cutoff prev cur with
      | None ->
        st.d_cutoff_streak <- st.d_cutoff_streak + 1;
        full_eval ()
      | Some delta when Relation.cardinality delta = 0 ->
        (* Nothing changed: last iteration's work output is still
           exact. (The loop is about to converge; this avoids one final
           full pass.) *)
        st.d_cutoff_streak <- 0;
        prev_work
      | Some delta ->
        st.d_cutoff_streak <- 0;
        b.set_temp delta_name (b.scatter delta);
        (* Affected keys: directly-changed keys plus every key that
           reads a changed row through a join leg. The affected temp
           feeds an IN semijoin, so its row order is immaterial. *)
        let affected = Hashtbl.create 64 in
        Relation.iter (fun r -> Hashtbl.replace affected r.(key_idx) ()) delta;
        List.iter
          (fun p ->
            Relation.iter (fun r -> Hashtbl.replace affected r.(0) ()) (eval p))
          affected_plans;
        let a_rows = Hashtbl.fold (fun k () acc -> [| k |] :: acc) affected [] in
        b.set_temp affected_name
          (b.scatter
             (Relation.make (Schema.of_names [ "key" ]) (Array.of_list a_rows)));
        let restricted = eval restricted_plan in
        stats.Stats.delta_rows_evaluated <-
          stats.Stats.delta_rows_evaluated + Relation.cardinality restricted;
        stitch ~key_idx ~cur ~prev_work ~affected restricted)
    | _ -> full_eval ()
  in
  (* Rebind the baselines only after every evaluation above has
     completed: a backend that recovers from a fault mid-step restores
     a checkpoint copy of this state, which still holds the
     pre-iteration baselines. *)
  if st.d_cutoff_streak >= delta_cutoff_streak_limit then begin
    (* This loop updates (nearly) every key every iteration; stop
       paying for the diff and re-evaluate in full from here on. *)
    st.d_prev_cte <- None;
    st.d_prev_work <- None
  end
  else begin
    st.d_prev_cte <- Some cur;
    st.d_prev_work <- Some work
  end;
  work

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)

let mark stats = Some (Unix.gettimeofday (), Stats.copy stats)

let materialized ~stats ~guards m n =
  stats.Stats.materializations <- stats.Stats.materializations + 1;
  stats.Stats.rows_materialized <- stats.Stats.rows_materialized + n;
  m.rows <- n;
  Guards.check guards ~stats

(** Execute [step] at [m.pc], setting [m.next_pc] and the Step-span
    gauges. *)
let exec_step ~stats ~guards ~trace b m step =
  match step with
  | Program.Materialize { target; plan } ->
    let r = b.eval plan in
    materialized ~stats ~guards m (b.cardinality r);
    b.set_temp target r
  | Program.Delta_materialize d ->
    let st = find_loop m "Delta_materialize" d.loop_id in
    let work =
      delta_materialize ~stats b st ~key_idx:d.key_idx
        ~cur:(b.gather (find b d.cte))
        ~full_plan:d.full_plan ~restricted_plan:d.restricted_plan
        ~affected_plans:d.affected_plans ~delta_name:d.delta_name
        ~affected_name:d.affected_name
    in
    materialized ~stats ~guards m (Relation.cardinality work);
    b.set_temp d.target (b.scatter work)
  | Program.Rename { from_; into } ->
    b.rename_temp ~from_ ~into;
    stats.Stats.renames <- stats.Stats.renames + 1
  | Program.Drop_temp name -> b.drop_temp name
  | Program.Assert_unique_key { temp; key_idx } ->
    check_unique_key (b.gather (find b temp)) ~key_idx
  | Program.Init_loop { loop_id; termination; cte; key_idx; guard } ->
    Hashtbl.replace m.loops loop_id
      {
        spec = termination;
        cte;
        key_idx;
        guard;
        iterations = 0;
        cumulative_updates = 0;
        snapshot = None;
        iter_mark = (match trace with None -> None | Some _ -> mark stats);
        d_prev_cte = None;
        d_prev_work = None;
        d_cutoff_streak = 0;
      }
  | Program.Snapshot { loop_id } -> (
    let st = find_loop m "Snapshot" loop_id in
    match st.spec with
    | Program.Max_iterations _ when Option.is_none trace ->
      (* Fixed iteration counts never read the previous version. With
         tracing on, read it anyway so the timeline reports true
         deltas; the read is pure, so logical stats are unchanged. *)
      ()
    | _ -> st.snapshot <- Option.map b.gather (b.find_temp st.cte))
  | Program.Loop_end { loop_id; body_start } ->
    let st = find_loop m "Loop_end" loop_id in
    Guards.check guards ~stats;
    st.iterations <- st.iterations + 1;
    stats.Stats.loop_iterations <- stats.Stats.loop_iterations + 1;
    let current () = b.gather (find b st.cte) in
    let updates =
      lazy
        (match st.snapshot with
        | None -> Relation.cardinality (current ())
        | Some prev -> Relation.delta_count ~key_idx:st.key_idx prev (current ()))
    in
    let continue_ = loop_continue ~current ~updates st in
    (match trace, st.iter_mark with
    | Some tr, Some (t0, s0) ->
      let now = Unix.gettimeofday () in
      m.rows <-
        (match b.find_temp st.cte with Some r -> b.cardinality r | None -> -1);
      m.delta <- Lazy.force updates;
      Trace.emit tr ~kind:Trace.Iteration ~label:st.cte ~loop_id
        ~iteration:st.iterations ~rows:m.rows ~delta:m.delta
        ~cum_updates:
          (match st.spec with
          | Program.Max_updates _ -> st.cumulative_updates
          | _ -> -1)
        ~wall_ms:((now -. t0) *. 1000.)
        ~counters:(Stats.trace_counters ~since:s0 stats)
        ();
      if continue_ then st.iter_mark <- Some (now, Stats.copy stats)
    | _ -> ());
    if continue_ then m.next_pc <- body_start;
    b.loop_end m
  | Program.Recursive_cte
      { name; work_name; base; step_plan; union_all; max_recursion } ->
    b.recursive_cte ~name ~work_name ~base ~step_plan ~union_all
      ~max_recursion
  | Program.Return plan ->
    let rel = b.gather (b.eval plan) in
    m.rows <- Relation.cardinality rel;
    m.result <- Some rel

(* Polymorphic recursion: a [Rerun] continues the same program on a
   backend of another relation type. *)
let rec exec : 'r. stats:Stats.t -> guards:Guards.t -> trace:Trace.t option ->
    'r backend -> Program.t -> Relation.t =
 fun ~stats ~guards ~trace b program ->
  let m =
    {
      steps = Program.steps program;
      loops = Hashtbl.create 4;
      pc = 0;
      next_pc = 0;
      rows = -1;
      delta = -1;
      result = None;
    }
  in
  let n_steps = Array.length m.steps in
  while m.pc < n_steps do
    b.before_step m;
    let step = m.steps.(m.pc) in
    m.next_pc <- m.pc + 1;
    m.rows <- -1;
    m.delta <- -1;
    let step_mark = match trace with None -> None | Some _ -> mark stats in
    match exec_step ~stats ~guards ~trace b m step with
    | () ->
      (match trace, step_mark with
      | Some tr, Some (t0, s0) ->
        Trace.emit tr ~kind:Trace.Step ~label:(step_label step) ~rows:m.rows
          ~delta:m.delta
          ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.)
          ~counters:(Stats.trace_counters ~since:s0 stats)
          ()
      | _ -> ());
      m.pc <- m.next_pc
    | exception e -> (
      (* No Step span for a failed attempt: a resumed execution emits
         the span for the work that actually completed. *)
      let bt = Printexc.get_raw_backtrace () in
      match b.recover e with
      | Reraise -> Printexc.raise_with_backtrace e bt
      | Resume ck -> restore m ck
      | Rerun b ->
        m.result <- Some (exec ~stats ~guards ~trace b program);
        m.pc <- n_steps)
  done;
  match m.result with
  | Some rel -> rel
  | None -> error "program terminated without a Return step"

let run ~stats ~guards ?trace b program =
  match trace with
  | None -> exec ~stats ~guards ~trace b program
  | Some tr ->
    let t0 = Unix.gettimeofday () and s0 = Stats.copy stats in
    let rel = exec ~stats ~guards ~trace b program in
    List.iter
      (fun op ->
        let i = Stats.op_index op in
        let dt = stats.Stats.op_wall.(i) -. s0.Stats.op_wall.(i) in
        if dt > 0.0 then
          Trace.emit tr ~kind:Trace.Operator ~label:(Stats.op_name op)
            ~wall_ms:(dt *. 1000.) ~counters:Trace.zero_counters ())
      Stats.all_ops;
    Trace.emit tr ~kind:Trace.Program ~label:"program"
      ~rows:(Relation.cardinality rel)
      ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.)
      ~counters:(Stats.trace_counters ~since:s0 stats)
      ();
    rel
