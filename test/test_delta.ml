(** Semi-naive (delta-driven) iteration: delta-on and delta-off runs
    must produce identical relations in every executor, while the delta
    path demonstrably restricts work. Pins the eligibility decisions
    (SSSP and FF qualify, a non-copied key falls back), the
    first-iteration full evaluation, the empty-delta reuse, and the
    documented stats contract: within one mode all executors stay
    [Stats.logical_equal]; across modes only ineligible programs do
    (the delta counters themselves differ by design). *)

module Engine = Dbspinner.Engine
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Parser = Dbspinner_sql.Parser
module Program = Dbspinner_plan.Program
module Catalog = Dbspinner_storage.Catalog
module Relation = Dbspinner_storage.Relation
module Table = Dbspinner_storage.Table
module Stats = Dbspinner_exec.Stats
module Executor = Dbspinner_exec.Executor
module Parallel = Dbspinner_exec.Parallel
module Distributed = Dbspinner_mpp.Distributed
module Fault = Dbspinner_mpp.Fault
module Trace = Dbspinner_obs.Trace
module Graph_gen = Dbspinner_graph.Graph_gen
module Loader = Dbspinner_workload.Loader
module Queries = Dbspinner_workload.Queries
open Helpers

let delta_off = { Options.default with Options.use_delta = false }

let lookup e name =
  Option.map Table.schema (Catalog.find_table_opt (Engine.catalog e) name)

let compile ?(options = Options.default) e sql =
  Iterative_rewrite.compile ~options ~lookup:(lookup e)
    (Parser.parse_query sql)

let compile_report ?(options = Options.default) e sql =
  Iterative_rewrite.compile_with_report ~options ~lookup:(lookup e)
    (Parser.parse_query sql)

(** Run on a clean temp namespace with fresh stats. *)
let run ?parallel ?use_cache ?trace e program =
  Catalog.clear_temps (Engine.catalog e);
  Executor.run_program_with_stats ?parallel ?use_cache ?trace
    (Engine.catalog e) program

let has_delta_step program =
  Array.exists
    (function Program.Delta_materialize _ -> true | _ -> false)
    (Program.steps program)

let check_same_logical_work msg (a : Stats.t) (b : Stats.t) =
  (* The parts of the contract that hold even across modes: same
     number of iterations, same materialization accounting. *)
  Alcotest.(check int) (msg ^ ": loop_iterations") a.Stats.loop_iterations
    b.Stats.loop_iterations;
  Alcotest.(check int) (msg ^ ": materializations") a.Stats.materializations
    b.Stats.materializations;
  Alcotest.(check int) (msg ^ ": rows_materialized") a.Stats.rows_materialized
    b.Stats.rows_materialized;
  Alcotest.(check int) (msg ^ ": renames") a.Stats.renames b.Stats.renames

(* ------------------------------------------------------------------ *)
(* SSSP: the paper's monotone-MIN loop, merge path                      *)

let sssp_fixture () =
  let g = Graph_gen.chain_with_shortcuts ~seed:7 ~num_nodes:150 ~shortcut_every:10 in
  let e = Loader.engine_for g in
  (e, Queries.sssp ~source:0 ~iterations:12 ())

let test_sssp_on_off () =
  let e, sql = sssp_fixture () in
  let p_on, report = compile_report e sql in
  Alcotest.(check bool) "sssp compiles a delta path" true
    (report.Iterative_rewrite.delta_paths > 0);
  Alcotest.(check bool) "program holds a Delta_materialize" true
    (has_delta_step p_on);
  let p_off = compile ~options:delta_off e sql in
  Alcotest.(check bool) "off program has no Delta_materialize" false
    (has_delta_step p_off);
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.check relation_testable "delta on = delta off" r_off r_on;
  check_same_logical_work "on vs off" s_off s_on;
  Alcotest.(check bool) "restricted evaluation actually ran" true
    (s_on.Stats.delta_rows_evaluated > 0);
  Alcotest.(check int) "off never evaluates delta rows" 0
    s_off.Stats.delta_rows_evaluated;
  Alcotest.(check int) "off never counts full re-evals" 0
    s_off.Stats.full_reevals;
  (* The point of the exercise: the restricted passes touch far fewer
     working-table rows than the full passes would have. *)
  Alcotest.(check bool)
    (Printf.sprintf "restricted rows (%d) < full rows (%d)"
       s_on.Stats.delta_rows_evaluated s_off.Stats.rows_materialized)
    true
    (s_on.Stats.delta_rows_evaluated < s_off.Stats.rows_materialized)

(* ------------------------------------------------------------------ *)
(* FF: pointwise rename path, no join legs -> no affected plans        *)

let test_ff_on_off () =
  let g = Graph_gen.power_law ~seed:11 ~num_nodes:80 ~edges_per_node:3 in
  let e = Loader.engine_for g in
  let sql = Queries.ff_full ~modulus:3 ~iterations:8 () in
  let p_on, report = compile_report e sql in
  Alcotest.(check bool) "ff compiles a delta path" true
    (report.Iterative_rewrite.delta_paths > 0);
  let p_off = compile ~options:delta_off e sql in
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.check relation_testable "delta on = delta off" r_off r_on;
  check_same_logical_work "on vs off" s_off s_on

(* ------------------------------------------------------------------ *)
(* First-iteration semantics: no previous version -> one full pass     *)

let test_first_iteration_is_full () =
  let e, _ = sssp_fixture () in
  let sql = Queries.sssp ~source:0 ~iterations:1 () in
  let p_on = compile e sql in
  Alcotest.(check bool) "still a delta program" true (has_delta_step p_on);
  let _, s = run e p_on in
  Alcotest.(check int) "single iteration" 1 s.Stats.loop_iterations;
  Alcotest.(check int) "it was a full evaluation" 1 s.Stats.full_reevals;
  Alcotest.(check int) "no restricted rows" 0 s.Stats.delta_rows_evaluated

(* ------------------------------------------------------------------ *)
(* Small deterministic fixtures over t (a, b)                          *)

let kv_engine rows =
  let e = Engine.create () in
  ignore (Engine.execute e "CREATE TABLE t (a INT, b INT)");
  if rows <> [] then
    ignore
      (Engine.execute e
         (Printf.sprintf "INSERT INTO t VALUES %s"
            (String.concat ", "
               (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) rows))));
  e

let kv_sql ?(key_expr = "k") ?(where = "") ~step_expr ~until () =
  Printf.sprintf
    {|WITH ITERATIVE r (k, v) AS (
  SELECT a, MIN(b) FROM t WHERE a IS NOT NULL GROUP BY a
ITERATE SELECT %s, %s FROM r%s
UNTIL %s )
SELECT k, v FROM r|}
    key_expr step_expr
    (if where = "" then "" else " WHERE " ^ where)
    until

(* An initial query that yields no rows: UNTIL ALL is vacuously true
   over an empty CTE, so the loop must stop immediately in both modes
   (the delta step never runs past its first full evaluation). *)
let test_empty_cte_until_all () =
  let e = kv_engine [] in
  let sql = kv_sql ~step_expr:"v + 1" ~until:"ALL v > 10" () in
  let p_on = compile e sql in
  let p_off = compile ~options:delta_off e sql in
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.(check int) "empty result" 0 (Relation.cardinality r_on);
  Alcotest.check relation_testable "delta on = delta off" r_off r_on;
  Alcotest.(check int) "one iteration on" 1 s_on.Stats.loop_iterations;
  Alcotest.(check int) "one iteration off" 1 s_off.Stats.loop_iterations

(* A step whose first column is not a bare copy of the key: the
   analyzer must refuse (it cannot track keys through arithmetic), the
   program compiles exactly as before, and the full contract holds —
   including [Stats.logical_equal], since no delta counter moves. *)
let test_ineligible_key_fallback () =
  let e = kv_engine [ (1, 5); (2, 3); (3, 9); (4, 0) ] in
  let sql =
    kv_sql ~key_expr:"k + 0" ~step_expr:"v + 1" ~until:"4 ITERATIONS" ()
  in
  let p_on, report = compile_report e sql in
  Alcotest.(check int) "no delta path" 0 report.Iterative_rewrite.delta_paths;
  Alcotest.(check bool) "no Delta_materialize emitted" false
    (has_delta_step p_on);
  let p_off = compile ~options:delta_off e sql in
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.check relation_testable "same rows" r_off r_on;
  Alcotest.(check bool) "ineligible programs stay logical_equal" true
    (Stats.logical_equal s_on s_off)

(* A loop that converges before its iteration bound: once the CTE stops
   changing, the diff is empty and the previous work output is reused
   verbatim — no further full passes, no restricted evaluation. *)
let test_empty_delta_reuses_previous () =
  let e = kv_engine [ (1, 5); (2, -3); (3, 9); (4, 0); (5, -1) ] in
  let sql = kv_sql ~step_expr:"LEAST(v, 0)" ~until:"6 ITERATIONS" () in
  let p_on, report = compile_report e sql in
  Alcotest.(check bool) "eligible" true
    (report.Iterative_rewrite.delta_paths > 0);
  let p_off = compile ~options:delta_off e sql in
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.check relation_testable "same rows" r_off r_on;
  Alcotest.(check int) "all iterations still run" 6 s_on.Stats.loop_iterations;
  check_same_logical_work "on vs off" s_off s_on;
  (* Iteration 1 has no previous version; iteration 2's diff touches
     most keys (the cutoff takes the full path); from then on the CTE
     is a fixpoint, so the step reuses the previous output. *)
  Alcotest.(check bool)
    (Printf.sprintf "full passes stop after convergence (%d <= 2)"
       s_on.Stats.full_reevals)
    true
    (s_on.Stats.full_reevals <= 2)

(* A step WHERE exercises the merge path: unselected keys keep their
   previous row, selected ones are updated — with deltas restricted to
   keys whose value changed. *)
let test_merge_path_on_off () =
  let e = kv_engine [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5); (6, 6) ] in
  let sql =
    kv_sql ~step_expr:"v + k" ~where:"v < 10" ~until:"5 ITERATIONS" ()
  in
  let p_on = compile e sql in
  let p_off = compile ~options:delta_off e sql in
  let r_on, s_on = run e p_on in
  let r_off, s_off = run e p_off in
  Alcotest.check relation_testable "same rows" r_off r_on;
  check_same_logical_work "on vs off" s_off s_on

(* ------------------------------------------------------------------ *)
(* Cross-executor equivalence with deltas on                           *)

let test_cross_executor_delta_on () =
  let e, sql = sssp_fixture () in
  let p_on = compile e sql in
  let seq, s_seq = run e p_on in
  (* Chunk-parallel. *)
  (match Parallel.context ~chunk_rows:16 ~workers:4 () with
  | None -> ()
  | Some parallel ->
    let par, s_par = run ~parallel e p_on in
    Alcotest.check relation_testable "parallel = sequential" seq par;
    Alcotest.(check bool) "parallel logical_equal" true
      (Stats.logical_equal s_seq s_par));
  (* Cached off. *)
  let uncached, s_unc = run ~use_cache:false e p_on in
  Alcotest.check relation_testable "uncached = cached" seq uncached;
  Alcotest.(check bool) "uncached logical_equal" true
    (Stats.logical_equal s_seq s_unc);
  (* Traced. *)
  let tr = Trace.create () in
  let traced, s_tr = run ~trace:tr e p_on in
  Alcotest.check relation_testable "traced = untraced" seq traced;
  Alcotest.(check bool) "traced logical_equal" true
    (Stats.logical_equal s_seq s_tr);
  Alcotest.(check bool) "trace recorded iterations" true
    (List.length (Trace.iteration_spans tr) > 0);
  (* Distributed: coordinator-side delta protocol over partitioned
     temps must gather to the same relation. *)
  Catalog.clear_temps (Engine.catalog e);
  let dist, _ = Distributed.run_program ~workers:4 (Engine.catalog e) p_on in
  Alcotest.check relation_testable "distributed = sequential" seq dist

let test_distributed_on_off () =
  let e, sql = sssp_fixture () in
  let p_on = compile e sql in
  let p_off = compile ~options:delta_off e sql in
  Catalog.clear_temps (Engine.catalog e);
  let s_on = Stats.create () in
  let on, _ =
    Distributed.run_program ~workers:3 ~stats:s_on (Engine.catalog e) p_on
  in
  Catalog.clear_temps (Engine.catalog e);
  let s_off = Stats.create () in
  let off, _ =
    Distributed.run_program ~workers:3 ~stats:s_off (Engine.catalog e) p_off
  in
  Alcotest.check relation_testable "distributed delta on = off" off on;
  Alcotest.(check int) "same iterations" s_off.Stats.loop_iterations
    s_on.Stats.loop_iterations;
  Alcotest.(check bool) "distributed restricted evaluation ran" true
    (s_on.Stats.delta_rows_evaluated > 0)

(* ------------------------------------------------------------------ *)
(* Property: random pointwise loops agree across modes                 *)

let prop_delta_on_off =
  let open QCheck2 in
  let rows_gen =
    Gen.(
      list_size (int_range 0 15)
        (pair (int_range 0 6) (int_range (-8) 8)))
  in
  let query_gen =
    Gen.(
      let* key_expr = oneofl [ "k"; "k"; "k"; "k + 0" ] in
      let* step_expr =
        oneofl [ "v + 1"; "v + k"; "LEAST(v, k)"; "v"; "v * 2"; "LEAST(v, 0)" ]
      in
      let* where = oneofl [ ""; "v < 5"; "k > 2"; "v > k" ] in
      let* rounds = int_range 1 5 in
      return (key_expr, step_expr, where, rounds))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"delta on = delta off on random iterative programs"
       ~print:(fun (rows, (key_expr, step_expr, where, rounds)) ->
         Printf.sprintf "%s over %d rows"
           (kv_sql ~key_expr ~where ~step_expr
              ~until:(Printf.sprintf "%d ITERATIONS" rounds)
              ())
           (List.length rows))
       (Gen.pair rows_gen query_gen)
       (fun (rows, (key_expr, step_expr, where, rounds)) ->
         let e = kv_engine rows in
         let sql =
           kv_sql ~key_expr ~where ~step_expr
             ~until:(Printf.sprintf "%d ITERATIONS" rounds)
             ()
         in
         let p_on, report = compile_report e sql in
         let p_off = compile ~options:delta_off e sql in
         let r_on, s_on = run e p_on in
         let r_off, s_off = run e p_off in
         if not (Relation.equal_bag r_on r_off) then
           QCheck2.Test.fail_reportf "rows differ:\non:\n%s\noff:\n%s"
             (Relation.to_table_string r_on)
             (Relation.to_table_string r_off)
         else if s_on.Stats.loop_iterations <> s_off.Stats.loop_iterations then
           QCheck2.Test.fail_reportf "iterations differ: %d vs %d"
             s_on.Stats.loop_iterations s_off.Stats.loop_iterations
         else if
           (* Ineligible programs must not diverge at all. *)
           report.Iterative_rewrite.delta_paths = 0
           && not (Stats.logical_equal s_on s_off)
         then
           QCheck2.Test.fail_reportf
             "ineligible program broke logical_equal:\n%s\nvs\n%s"
             (Stats.to_string s_on) (Stats.to_string s_off)
         else begin
           (* Faulted distributed leg: recoveries restore the loop state,
              delta baselines included, from a checkpoint. Two faults
              stay within the default retry budget, so every fault is
              recovered in place rather than by the single-node rerun
              (which would count the completed iterations again). *)
           let fault =
             Fault.probabilistic ~max_faults:2
               ~seed:(rounds + (17 * List.length rows))
               ~probability:0.2 ()
           in
           let s_dist = Stats.create () in
           Catalog.clear_temps (Engine.catalog e);
           let r_dist, _ =
             Distributed.run_program ~workers:3 ~fault ~stats:s_dist
               (Engine.catalog e) p_on
           in
           Catalog.clear_temps (Engine.catalog e);
           if not (Relation.equal_bag r_on r_dist) then
             QCheck2.Test.fail_reportf
               "faulted distributed rows differ:\n%s\nvs\n%s"
               (Relation.to_table_string r_on)
               (Relation.to_table_string r_dist)
           else if s_dist.Stats.loop_iterations <> s_on.Stats.loop_iterations
           then
             QCheck2.Test.fail_reportf
               "faulted distributed iterations differ: %d vs %d"
               s_dist.Stats.loop_iterations s_on.Stats.loop_iterations
           else if
             s_dist.Stats.faults_injected
             <> s_dist.Stats.retries + s_dist.Stats.fallbacks
           then
             QCheck2.Test.fail_reportf
               "faults %d <> retries %d + fallbacks %d"
               s_dist.Stats.faults_injected s_dist.Stats.retries
               s_dist.Stats.fallbacks
           else true
         end))

let () =
  Alcotest.run "delta"
    [
      ( "workloads",
        [
          Alcotest.test_case "sssp-on-off" `Quick test_sssp_on_off;
          Alcotest.test_case "ff-on-off" `Quick test_ff_on_off;
          Alcotest.test_case "first-iteration-full" `Quick
            test_first_iteration_is_full;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty-cte-until-all" `Quick
            test_empty_cte_until_all;
          Alcotest.test_case "ineligible-key-fallback" `Quick
            test_ineligible_key_fallback;
          Alcotest.test_case "empty-delta-reuse" `Quick
            test_empty_delta_reuses_previous;
          Alcotest.test_case "merge-path" `Quick test_merge_path_on_off;
        ] );
      ( "executors",
        [
          Alcotest.test_case "cross-executor" `Quick
            test_cross_executor_delta_on;
          Alcotest.test_case "distributed-on-off" `Quick
            test_distributed_on_off;
        ] );
      ("properties", [ prop_delta_on_off ]);
    ]
