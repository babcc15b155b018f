(** The single-node executor: evaluates logical plans against the
    catalog and runs step programs on {!Interp} with temps in the
    catalog — the runtime half of the paper's §VI.

    Scans resolve names through the catalog with temps shadowing base
    tables; that is how the iterative reference reads the current
    iteration's version of the CTE table. *)

module Schema = Dbspinner_storage.Schema
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Logical = Dbspinner_plan.Logical
module Program = Dbspinner_plan.Program
module Bound_expr = Dbspinner_plan.Bound_expr

exception Execution_error = Interp.Execution_error

let error = Interp.error

(* ------------------------------------------------------------------ *)
(* Plan evaluation                                                     *)

exception Not_cacheable

(** The relations a plan subtree reads, with their generations, or
    [None] when the subtree is not cache-eligible. Eligible subtrees
    read only named relations (temps or base tables): an [L_values]
    leaf embeds literal rows in the key, where NaN floats would defeat
    the structural equality the memo tables rely on, so it opts out.
    Every source's generation is part of the cache key, which is what
    makes a stale hit impossible: rebinding a temp or mutating a base
    table changes the key rather than racing an invalidation. *)
let cache_sources (catalog : Catalog.t) (plan : Logical.t) :
    Cache.source list option =
  let acc = ref [] in
  let add_scan name =
    let k = String.lowercase_ascii name in
    (* Temps shadow base tables, same precedence as Catalog.resolve. *)
    match Catalog.temp_generation catalog name with
    | Some gen ->
      acc := { Cache.src_temp = true; src_name = k; src_gen = gen } :: !acc
    | None -> (
      match Catalog.find_table_opt catalog name with
      | Some tbl ->
        acc :=
          { Cache.src_temp = false; src_name = k; src_gen = Table.version tbl }
          :: !acc
      | None -> raise Not_cacheable)
  in
  let rec walk = function
    | Logical.L_scan { name; _ } -> add_scan name
    | Logical.L_values _ -> raise Not_cacheable
    | Logical.L_filter { input; _ }
    | Logical.L_project { input; _ }
    | Logical.L_aggregate { input; _ }
    | Logical.L_distinct input
    | Logical.L_sort { input; _ }
    | Logical.L_limit (_, input)
    | Logical.L_offset (_, input) -> walk input
    | Logical.L_join { left; right; _ }
    | Logical.L_union { left; right; _ }
    | Logical.L_intersect { left; right; _ }
    | Logical.L_except { left; right; _ } ->
      walk left;
      walk right
    | Logical.L_subquery_filter { input; sub; _ } ->
      walk input;
      walk sub
  in
  match walk plan with
  | () -> Some (List.sort_uniq compare !acc)
  | exception Not_cacheable -> None

let rec run_plan ?parallel ?cache ?guards ?columnar ~(stats : Stats.t)
    (catalog : Catalog.t) (plan : Logical.t) : Relation.t =
  match plan with
  | Logical.L_scan { name; scan_schema } -> (
    Stats.timed stats Stats.Op_scan @@ fun () ->
    match Catalog.resolve_opt catalog name with
    | None -> error "relation %s does not exist" name
    | Some rel ->
      stats.Stats.rows_scanned <-
        stats.Stats.rows_scanned + Relation.cardinality rel;
      if Schema.arity (Relation.schema rel) <> Schema.arity scan_schema then
        error "relation %s changed arity since planning" name;
      rel)
  | Logical.L_values rel -> rel
  | Logical.L_filter { pred; input } ->
    Operators.filter ?parallel ?cache ?guards ?columnar ~stats pred
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_project { exprs; input } ->
    Operators.project ?parallel ?cache ?guards ?columnar ~stats exprs
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_join { kind; cond; left; right; join_schema } -> (
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    (* Cached hash-join path: when the build (right) side reads only
       named relations, memoize its build table under the sources'
       generations. A loop-invariant side (the common-result temp, or a
       base table like [edges]) keeps its generation across iterations
       and hits; the iterative temp is rebound each iteration and
       misses. Falls back to the ordinary join when no equi-key exists
       or the side is not eligible. *)
    let cached =
      match cache, cond with
      | Some c, Some cnd when kind <> Logical.Cross -> (
        let left_arity = Schema.arity (Relation.schema l) in
        match Operators.split_equi_condition ~left_arity cnd with
        | [], _ -> None
        | keys, residual -> (
          match cache_sources catalog right with
          | None -> None
          | Some srcs ->
            let build_keys = List.map snd keys in
            let build =
              Cache.join_build c ~stats
                { Cache.bk_sources = srcs; bk_plan = right; bk_keys = build_keys }
                (fun local ->
                  let r =
                    run_plan ?parallel ?cache ?guards ?columnar ~stats:local
                      catalog right
                  in
                  Operators.make_join_build ?cache ?guards ~stats:local
                    build_keys r)
            in
            Some
              (Operators.hash_join_probe ?parallel ?cache ?guards ?columnar
                 ~stats kind keys residual build l join_schema)))
      | _ -> None
    in
    match cached with
    | Some rel -> rel
    | None ->
      let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
      Operators.join ?parallel ?cache ?guards ?columnar ~stats kind cond l r
        join_schema)
  | Logical.L_aggregate { keys; aggs; input; agg_schema } ->
    Operators.aggregate ?cache ?guards ?columnar ~stats ~keys ~aggs
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
      agg_schema
  | Logical.L_distinct input ->
    Operators.distinct ~stats
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_sort { keys; input } ->
    Operators.sort ?cache ~stats keys
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_limit (n, input) ->
    Operators.limit ~stats n
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_offset (n, input) ->
    Operators.offset ~stats n
      (run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input)
  | Logical.L_union { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    let u = Operators.union_all ~stats l r in
    if all then u else Operators.distinct ~stats u
  | Logical.L_intersect { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    Operators.intersect ~stats ~all l r
  | Logical.L_except { all; left; right } ->
    let l = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog left in
    let r = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog right in
    Operators.except ~stats ~all l r
  | Logical.L_subquery_filter { anti; key; input; sub } -> (
    let i = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog input in
    (* Same memoization for IN / EXISTS subquery digests: a
       loop-invariant subquery is digested once per run. *)
    let cached =
      match cache with
      | Some c -> (
        match cache_sources catalog sub with
        | None -> None
        | Some srcs ->
          let keyed = key <> None in
          let set =
            Cache.sub_set c ~stats
              { Cache.sk_sources = srcs; sk_plan = sub; sk_keyed = keyed }
              (fun local ->
                let sq =
                  run_plan ?parallel ?cache ?guards ?columnar ~stats:local
                    catalog sub
                in
                Operators.make_sub_set ~stats:local ~need_members:keyed sq)
          in
          Some (Operators.subquery_filter_with_set ?cache ~stats ~anti ~key i set))
      | None -> None
    in
    match cached with
    | Some rel -> rel
    | None ->
      let sq = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog sub in
      Operators.subquery_filter ?cache ~stats ~anti ~key i sq)

(* ------------------------------------------------------------------ *)
(* Recursive CTE (semi-naive)                                          *)

let run_recursive ?parallel ?cache ?guards ?columnar ~stats catalog ~name
    ~work_name ~base ~step_plan ~union_all ~max_recursion =
  let invalidate n = Option.iter (fun c -> Cache.invalidate_temp c n) cache in
  let base_rel = run_plan ?parallel ?cache ?guards ?columnar ~stats catalog base in
  let schema = Relation.schema base_rel in
  let module Row_tbl = Operators.Row_tbl in
  let seen = Row_tbl.create (max 16 (Relation.cardinality base_rel)) in
  let dedupe rel =
    (* Keep only rows never produced before (UNION-distinct mode). *)
    let fresh = ref [] in
    Relation.iter
      (fun r ->
        if not (Row_tbl.mem seen r) then begin
          Row_tbl.replace seen r ();
          fresh := r :: !fresh
        end)
      rel;
    Relation.make schema (Array.of_list (List.rev !fresh))
  in
  let acc = ref [] in
  let push rel = Relation.iter (fun r -> acc := r :: !acc) rel in
  let working = ref (if union_all then base_rel else dedupe base_rel) in
  push !working;
  let rounds = ref 0 in
  while Relation.cardinality !working > 0 do
    incr rounds;
    if !rounds > max_recursion then
      error "recursive CTE %s exceeded %d rounds (missing fixed point?)" name
        max_recursion;
    Catalog.set_temp catalog work_name !working;
    invalidate work_name;
    let produced =
      run_plan ?parallel ?cache ?guards ?columnar ~stats catalog step_plan
    in
    let fresh = if union_all then produced else dedupe produced in
    push fresh;
    working := fresh
  done;
  Catalog.drop_temp catalog work_name;
  invalidate work_name;
  let result = Relation.make schema (Array.of_list (List.rev !acc)) in
  Catalog.set_temp catalog name result;
  invalidate name

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)

let assert_unique_key catalog ~temp ~key_idx =
  Interp.check_unique_key (Catalog.find_temp catalog temp) ~key_idx

(** The single-node backend: temps live in the catalog, gather and
    scatter are the identity, and every rebinding step invalidates the
    per-run cache. Faults are not its business: every exception
    propagates. *)
let backend ?parallel ?(guards = Guards.none) ?(use_cache = true)
    ?(columnar = false) ~stats catalog : Relation.t Interp.backend =
  let cache = if use_cache then Some (Cache.create ()) else None in
  (* In-operator probes are free to skip when no limit is set; [None]
     keeps the per-row tick a single branch. *)
  let gopt = if Guards.is_none guards then None else Some guards in
  (* Memory hygiene at every rebinding step: generations already make
     stale hits impossible, but entries built over a dead generation
     would otherwise pile up for the length of the loop. *)
  let invalidate n = Option.iter (fun c -> Cache.invalidate_temp c n) cache in
  {
    Interp.eval = run_plan ?parallel ?cache ?guards:gopt ~columnar ~stats catalog;
    find_temp = Catalog.find_temp_opt catalog;
    set_temp =
      (fun name rel ->
        Catalog.set_temp catalog name rel;
        invalidate name);
    rename_temp =
      (fun ~from_ ~into ->
        Catalog.rename_temp catalog ~from_ ~into;
        invalidate from_;
        invalidate into);
    drop_temp =
      (fun name ->
        Catalog.drop_temp catalog name;
        invalidate name);
    cardinality = Relation.cardinality;
    gather = Fun.id;
    scatter = Fun.id;
    recursive_cte =
      run_recursive ?parallel ?cache ?guards:gopt ~columnar ~stats catalog;
    before_step = ignore;
    loop_end = ignore;
    recover = (fun _ -> Interp.Reraise);
  }

(** Run a step program to completion and return the final relation.
    [guards] (wall-clock deadline, rows-materialized budget) are
    checked at materialize and loop boundaries. [use_cache] enables the
    per-run iteration-aware {!Cache}; results and logical stats are
    identical either way. [trace] is handed to the interpreter, which
    emits every span. *)
let run_program ?parallel ?(stats = Stats.create ()) ?(guards = Guards.none)
    ?use_cache ?columnar ?trace (catalog : Catalog.t) (program : Program.t) :
    Relation.t =
  Interp.run ~stats ~guards ?trace
    (backend ?parallel ~guards ?use_cache ?columnar ~stats catalog)
    program

(** Loop-iteration count of the last loop in a program run — exposed
    for tests via running with an explicit [stats]. *)
let run_program_with_stats ?parallel ?guards ?use_cache ?columnar ?trace
    catalog program =
  let stats = Stats.create () in
  let rel =
    run_program ?parallel ~stats ?guards ?use_cache ?columnar ?trace catalog
      program
  in
  (rel, stats)
