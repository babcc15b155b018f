(* The DBSpinner benchmark: four workloads (see README.md in this
   directory), each run either untraced, printing the end-to-end
   metrics, or traced, printing the per-layer breakdown. The last line
   of standard output is one JSON object; everything before it is a
   human-readable log that names every percentile with its sample
   count. *)

module Engine = Dbspinner.Engine
module Errors = Dbspinner.Errors
module Value = Dbspinner_storage.Value
module Relation = Dbspinner_storage.Relation
module Catalog = Dbspinner_storage.Catalog
module Table = Dbspinner_storage.Table
module Graph_gen = Dbspinner_graph.Graph_gen
module Datasets = Dbspinner_graph.Datasets
module Rng = Dbspinner_graph.Rng
module Ref_pagerank = Dbspinner_graph.Ref_pagerank
module Ref_sssp = Dbspinner_graph.Ref_sssp
module Ref_forecast = Dbspinner_graph.Ref_forecast
module Queries = Dbspinner_workload.Queries
module Loader = Dbspinner_workload.Loader
module Options = Dbspinner_rewrite.Options
module Iterative_rewrite = Dbspinner_rewrite.Iterative_rewrite
module Rule = Dbspinner_rewrite.Rule
module Parser = Dbspinner_sql.Parser
module Executor = Dbspinner_exec.Executor
module Stats = Dbspinner_exec.Stats
module Cost = Dbspinner_plan.Cost
module Trace = Dbspinner_obs.Trace
module Protocol = Dbspinner_server.Protocol
module Metrics = Dbspinner_server.Metrics
module Wal = Dbspinner_durable.Wal

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let ms_since t0 = (now () -. t0) *. 1000.0

(* ------------------------------------------------------------------ *)
(* Fixed workload parameters                                           *)

let iterations = 25

(* Set-up is repeated and its median reported: one set-up is a single
   sample of a cold path, too noisy on its own. *)
let setup_rounds = 5

(* A server boot is short (tens of ms) and includes an fsync, so it
   gets more rounds. *)
let server_boots = 15

(* Writes are 100-row batches: big enough to time steadily. *)
let batch_rows = 100

(* Inserted edges carry weight [100 + batch]; generated weights are
   below 10, so every row a write adds is recognisable by weight. *)
let marker_weight batch = 100 + batch
let is_marker w = w >= 100.0

(* The engine workloads run their iterative queries for this share of
   --seconds and the in-process side load for the rest. *)
let iterative_share = 0.6

(* Share of the side load spent on writes; quiet lookups get the rest. *)
let side_write_share = 0.5

(* Untraced engine runs alternate the two loads in this many slices. *)
let slices = 10

(* Point keys are nodes with 1..40 out-edges, so an answer (plus any
   marker rows) always fits the server's 50-row rendering. *)
let max_point_degree = 40

(* server-mixed: the reader's fixed pattern is one PR-VS query followed
   by this many point lookups; the writer is open-loop at this rate. *)
let reader_points_per_prvs = 8
let write_rate = 20.0
let prvs_iterations = 5
let server_scale = 1.0

(* The server runs its queries on the session threads of its main
   domain ([--workers 1]). With its default pool of 4 domains on a
   2-vCPU host every minor collection stops all domains at once: PR-VS
   took twice as long, and the interquartile range of its median over
   five seeds was 35% of the median instead of 4%. *)
let server_workers = 1

(* Floors on the sample counts, so a percentile always has ten samples
   beyond it: a phase runs for --seconds and, if the system is slower
   than that allows, until it has these many. *)
let p50_floor = 20
let p90_floor = 100

(* Plain queries per traced cycle: the traced run reports the p90s, so
   it needs more plain samples than decomposed ones. *)
let plain_per_cycle = 3

(* ------------------------------------------------------------------ *)
(* Samples and percentiles                                             *)

module Samples = struct
  type t = {
    name : string;
    mutable data : float array;
    mutable n : int;
  }

  let create name = { name; data = Array.make 64 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let grown = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 grown 0 t.n;
      t.data <- grown
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a

  (** Nearest-rank percentile. Fails the run, rather than printing a
      number, unless at least ten samples lie beyond it. *)
  let percentile t p =
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
    let beyond = t.n - rank in
    if t.n = 0 || beyond < 10 then
      fail "%s: %d samples leave %d beyond p%g; at least 10 are needed" t.name
        t.n (max 0 beyond) p;
    let v = (sorted t).(rank - 1) in
    Printf.printf "  %-32s p%-2g %14.4f  (n=%d, %d beyond)\n" t.name p v t.n
      beyond;
    v

  (** Median of a handful of repeated set-up rounds. *)
  let median_of_rounds t =
    if t.n = 0 then fail "%s: no rounds" t.name;
    let s = sorted t in
    let v =
      if t.n mod 2 = 1 then s.(t.n / 2)
      else (s.((t.n / 2) - 1) +. s.(t.n / 2)) /. 2.0
    in
    Printf.printf "  %-32s median %11.4f  (rounds=%d)\n" t.name v t.n;
    v
end

(** Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM line in %s" path
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Spans recorded around calls into the engine's layers                *)

module Spans = struct
  type span = {
    id : int;
    parent : int;  (** -1 for a request's root span *)
    req : int;  (** request id shared by a request's spans *)
    op : string;  (** operation type of the request *)
    name : string;
    t0 : float;
    mutable t1 : float;
  }

  type t = {
    mutable spans : span list;  (** newest first *)
    mutable next_id : int;
    mutable next_req : int;
  }

  let create () = { spans = []; next_id = 0; next_req = 0 }

  let new_request t =
    t.next_req <- t.next_req + 1;
    t.next_req

  let with_span t ?(parent = -1) ~req ~op name f =
    let s = { id = t.next_id; parent; req; op; name; t0 = now (); t1 = nan } in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    Fun.protect ~finally:(fun () -> s.t1 <- now ()) (fun () -> f s)

  let duration_ms s = (s.t1 -. s.t0) *. 1000.0

  (** Self time of every span: its duration minus the part of its
      interval that its child spans cover. *)
  let self_ms t =
    let children = Hashtbl.create 256 in
    List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) t.spans;
    let self = Hashtbl.create 256 in
    List.iter
      (fun s ->
        let kids =
          List.sort (fun a b -> Float.compare a.t0 b.t0) (Hashtbl.find_all children s.id)
        in
        let covered, _ =
          List.fold_left
            (fun (covered, reach) k ->
              let lo = Float.max k.t0 reach and hi = Float.min k.t1 s.t1 in
              if hi > lo then (covered +. (hi -. lo), hi) else (covered, reach))
            (0.0, s.t0) kids
        in
        Hashtbl.replace self s.id (((s.t1 -. s.t0) -. covered) *. 1000.0))
      t.spans;
    self

  (** Self times of the spans named [name] in requests of type [op]. *)
  let samples t self ~op name =
    let out = Samples.create (op ^ ":" ^ name) in
    List.iter
      (fun s -> if s.op = op && s.name = name then Samples.add out (Hashtbl.find self s.id))
      (List.rev t.spans);
    out

  let write_ndjson t self path =
    let base = List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans in
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"parent\":%d,\"req\":%d,\"op\":%S,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f,\"self_ms\":%.4f}\n"
              s.id s.parent s.req s.op s.name
              ((s.t0 -. base) *. 1000.0)
              ((s.t1 -. base) *. 1000.0)
              (Hashtbl.find self s.id))
          (List.rev t.spans))
end

(* ------------------------------------------------------------------ *)
(* Engine workloads and their oracles                                  *)

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)

(** Nodes that appear in some edge: the iterative CTEs' row set. *)
let endpoint_count (g : Graph_gen.t) =
  let seen = Array.make (Graph_gen.num_nodes g) false in
  Array.iter
    (fun (e : Graph_gen.edge) ->
      seen.(e.src) <- true;
      seen.(e.dst) <- true)
    (Graph_gen.edges g);
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

(** [None] when every row passes [f] and the count is right. *)
let check_rows rel ~expected_rows f =
  if Relation.cardinality rel <> expected_rows then
    Some
      (Printf.sprintf "%d rows, expected %d" (Relation.cardinality rel)
         expected_rows)
  else
    try Relation.fold (fun acc row -> match acc with Some _ -> acc | None -> f row) None rel
    with e -> Some (Printexc.to_string e)

type engine_spec = {
  default_seed : int;
  graph : int -> Graph_gen.t;
  sql : string;
  check : Graph_gen.t -> Relation.t -> string option;
      (** compare a result with the reference implementation *)
}

let dblp_like_at ~scale seed =
  let spec = Datasets.dblp_like in
  Graph_gen.power_law ~seed
    ~num_nodes:(int_of_float (float_of_int spec.Datasets.nodes *. scale))
    ~edges_per_node:spec.Datasets.edges_per_node

(* Every row changes in every iteration, so the delta path falls back:
   operator kernels and allocation. *)
let pagerank =
  {
    default_seed = Datasets.dblp_like.Datasets.seed;
    graph = dblp_like_at ~scale:1.0;
    sql = Queries.pr ~iterations ();
    check =
      (fun g rel ->
        let st = Ref_pagerank.run g ~iterations in
        check_rows rel ~expected_rows:(endpoint_count g) (fun row ->
            let node = Value.to_int row.(0) and rank = Value.to_float row.(1) in
            if close rank st.Ref_pagerank.rank.(node) then None
            else
              Some
                (Printf.sprintf "node %d rank %.9g, expected %.9g" node rank
                   st.Ref_pagerank.rank.(node))));
  }

(* A narrow frontier: the semi-naive delta protocol does the work. *)
let sssp_frontier =
  {
    default_seed = 7;
    graph =
      (fun seed ->
        Graph_gen.chain_with_fanin ~seed ~num_nodes:4000 ~shortcut_every:10
          ~upstream:400 ~fanout:220);
    sql = Queries.sssp ~source:0 ~iterations ();
    check =
      (fun g rel ->
        let st = Ref_sssp.run g ~source:0 ~iterations in
        check_rows rel ~expected_rows:(endpoint_count g) (fun row ->
            let node = Value.to_int row.(0) in
            let distance = Value.to_float row.(1) and delta = Value.to_float row.(2) in
            if
              close distance st.Ref_sssp.distance.(node)
              && close delta st.Ref_sssp.delta.(node)
              && close (Float.min distance delta) (Ref_sssp.best st node)
            then None
            else Some (Printf.sprintf "node %d distance/delta %.9g/%.9g" node distance delta)));
  }

(* A pointwise loop body with no join: step machinery dominates. *)
let forecast =
  {
    default_seed = Datasets.dblp_like.Datasets.seed;
    graph = dblp_like_at ~scale:8.0;
    sql = Queries.ff ~modulus:2 ~iterations ();
    check =
      (fun g rel ->
        let expected =
          Array.of_list
            (Ref_forecast.final ~modulus:2 (Ref_forecast.run g ~iterations))
        in
        let i = ref 0 in
        check_rows rel ~expected_rows:(Array.length expected) (fun row ->
            let e = expected.(!i) in
            incr i;
            let node = Value.to_int row.(0) and friends = Value.to_float row.(1) in
            if node = e.Ref_forecast.node && close friends e.Ref_forecast.friends then None
            else
              Some
                (Printf.sprintf "row %d: node %d friends %.9g, expected node %d %.9g"
                   !i node friends e.Ref_forecast.node e.Ref_forecast.friends)));
  }

(** The server's dataset, regenerated in the load generator for the
    oracle and the in-process baselines. *)
let server_graph () = Datasets.generate ~scale:server_scale Datasets.dblp_like

(** A fresh engine holding the server's dataset. The in-process
    point/write phase runs here on every workload: the same statements
    on the same data as server-mixed, on a small heap, so it is also
    the baseline the server overheads subtract. *)
let baseline_engine () =
  let g = server_graph () in
  let e = Engine.create () in
  Loader.load_graph e g;
  (g, e)

(** Order-independent digest of a result, to compare repeated answers
    with the first without keeping them. *)
let fingerprint rel =
  Relation.fold (fun acc row -> acc + Hashtbl.hash row) (Relation.cardinality rel) rel

(* ------------------------------------------------------------------ *)
(* Point lookups and 100-row writes, generated from the seed           *)

let point_sql k = Printf.sprintf "SELECT dst, weight FROM edges WHERE src = %d" k

(** Write [j] is one script: delete batch [j-1], then insert batch [j]
    (100 edges among existing nodes). Every batch is inserted and later
    deleted, table size stays stationary over any run length, and every
    write has the same shape, so write latency has one mode. *)
let write_sql ~seed ~num_nodes j =
  let rng = Rng.create ((seed * 1_000_003) + j) in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "DELETE FROM edges WHERE weight = %d.0; INSERT INTO edges VALUES "
    (marker_weight (j - 1));
  for i = 0 to batch_rows - 1 do
    let src = Rng.int rng num_nodes in
    let dst = (src + 1 + Rng.int rng (num_nodes - 1)) mod num_nodes in
    if i > 0 then Buffer.add_string buf ", ";
    Printf.bprintf buf "(%d, %d, %d.0)" src dst (marker_weight j)
  done;
  Buffer.contents buf

(** Rows write [j]'s two statements affect (batch -1 does not exist). *)
let write_affects j = [ (if j = 0 then 0 else batch_rows); batch_rows ]

type points = {
  adjacency : (int * float) list array;  (** generated out-edges, sorted *)
  next_key : unit -> int;
}

let points_for ~seed g =
  let adjacency = Array.map (List.sort compare) (Graph_gen.out_adjacency g) in
  let eligible =
    List.filter
      (fun v ->
        let d = List.length adjacency.(v) in
        d >= 1 && d <= max_point_degree)
      (List.init (Graph_gen.num_nodes g) Fun.id)
    |> Array.of_list
  in
  if Array.length eligible = 0 then fail "no node qualifies for point lookups";
  let rng = Rng.create (seed + 7919) in
  { adjacency; next_key = (fun () -> eligible.(Rng.int rng (Array.length eligible))) }

(** A point answer is right when its non-marker rows are exactly the
    generated out-edges of [k]: concurrent writes only add marker rows. *)
let check_point_rel pts k rel =
  let got =
    Relation.fold
      (fun acc row ->
        let w = Value.to_float row.(1) in
        if is_marker w then acc else (Value.to_int row.(0), w) :: acc)
      [] rel
  in
  if List.sort compare got = pts.adjacency.(k) then None
  else Some (Printf.sprintf "point lookup src=%d returned wrong rows" k)

(** Rows of a rendered result table (header dropped), as cell lists. *)
let parse_table body =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let cells line =
    match List.map String.trim (String.split_on_char '|' line) with
    | "" :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
    | _ -> []
  in
  let rows = List.filter (fun l -> String.length l > 0 && l.[0] = '|') lines in
  let truncated = List.exists (fun l -> String.ends_with ~suffix:"more rows)" l) lines in
  match rows with
  | _header :: data when not truncated -> Some (List.map cells data)
  | _ -> None

let check_point_text pts k body =
  let want =
    List.map (fun (d, w) -> (string_of_int d, Value.to_string (Value.Float w))) pts.adjacency.(k)
  in
  match parse_table body with
  | None -> Some (Printf.sprintf "point lookup src=%d: unreadable answer" k)
  | Some rows -> (
    try
      let got =
        List.filter_map
          (function
            | [ d; w ] -> if is_marker (float_of_string w) then None else Some (d, w)
            | _ -> raise Exit)
          rows
      in
      if List.sort compare got = List.sort compare want then None
      else Some (Printf.sprintf "point lookup src=%d returned wrong rows" k)
    with _ -> Some (Printf.sprintf "point lookup src=%d: unreadable answer" k))

(* ------------------------------------------------------------------ *)
(* The decomposed query path: parse, compile, run                      *)

let lookup catalog name =
  match Catalog.find_temp_opt catalog name with
  | Some rel -> Some (Relation.schema rel)
  | None -> Option.map Table.schema (Catalog.find_table_opt catalog name)

let statistics catalog =
  {
    Cost.cardinality_of =
      (fun name ->
        match Catalog.find_table_opt catalog name with
        | Some tbl -> Some (Table.cardinality tbl)
        | None -> Option.map Relation.cardinality (Catalog.find_temp_opt catalog name));
  }

type decomposed = {
  rel : Relation.t;
  stats : Stats.t;
  rules_fired : int;
  exec_trace : Trace.t option;
  root : Spans.span;
}

(** What [Engine.query] does, one public layer function at a time, each
    call wrapped in a span; failures surface as {!Errors.Error}. *)
let run_decomposed spans ~op ~trace_exec engine sql =
  let catalog = Engine.catalog engine and options = Engine.options engine in
  let req = Spans.new_request spans in
  let exec_trace = if trace_exec then Some (Trace.create ()) else None in
  let stats = Stats.create () in
  Errors.wrap (fun () ->
    Spans.with_span spans ~req ~op "request" (fun root ->
        let parent = root.Spans.id in
        let q = Spans.with_span spans ~parent ~req ~op "sql.parse" (fun _ -> Parser.parse_query sql) in
        let program, report =
          Spans.with_span spans ~parent ~req ~op "rewrite.compile" (fun _ ->
              Iterative_rewrite.compile_with_report ~options
                ~statistics:(statistics catalog) ~lookup:(lookup catalog) q)
        in
        let rel =
          Spans.with_span spans ~parent ~req ~op "exec.run" (fun _ ->
              Fun.protect
                ~finally:(fun () -> Catalog.clear_temps catalog)
                (fun () ->
                  Executor.run_program ~stats ~use_cache:options.Options.use_exec_cache
                    ~columnar:options.Options.use_columnar ?trace:exec_trace catalog
                    program))
        in
        let rules_fired = Rule.total_fired report.Iterative_rewrite.rewrite_log in
        { rel; stats; rules_fired; exec_trace; root }))

(* ------------------------------------------------------------------ *)
(* In-process point lookups and writes                                 *)

type side = {
  engine : Engine.t;
  pts : points;
  num_nodes : int;
  seed : int;
  point : string -> Relation.t * float;
      (** runs one lookup, returns its answer and latency *)
  point_ms : Samples.t;  (** lookups on a table no write has touched since *)
  after_write_ms : Samples.t;  (** the first lookup after each write *)
  write_ms : Samples.t;
  mutable next_write : int;
  mutable s_attempted : int;
  mutable s_failed : int;
}

let affected results = List.map (function Engine.Affected n -> n | _ -> -1) results

(** The in-process side load: the server-mixed point lookups and
    writes, run against [engine] in rounds. *)
let side_load ~engine ~graph ~seed ~point =
  {
    engine;
    pts = points_for ~seed graph;
    num_nodes = Graph_gen.num_nodes graph;
    seed;
    point;
    point_ms = Samples.create "point_latency_ms";
    after_write_ms = Samples.create "read_after_write_ms";
    write_ms = Samples.create "write_latency_ms";
    next_write = 0;
    s_attempted = 0;
    s_failed = 0;
  }

let side_lookup side samples =
  side.s_attempted <- side.s_attempted + 1;
  let k = side.pts.next_key () in
  match side.point (point_sql k) with
  | rel, ms -> (
    match check_point_rel side.pts k rel with
    | None -> Samples.add samples ms
    | Some _ -> side.s_failed <- side.s_failed + 1)
  | exception Errors.Error _ -> side.s_failed <- side.s_failed + 1

let side_write side =
  let j = side.next_write in
  side.next_write <- j + 1;
  side.s_attempted <- side.s_attempted + 1;
  let t0 = now () in
  match Engine.execute_script side.engine (write_sql ~seed:side.seed ~num_nodes:side.num_nodes j) with
  | results when affected results = write_affects j -> Samples.add side.write_ms (ms_since t0)
  | _ -> side.s_failed <- side.s_failed + 1
  | exception Errors.Error _ -> side.s_failed <- side.s_failed + 1

(** Writes for [seconds], each followed by one lookup, which pays the
    read-after-write cost and is timed apart; on until [floor] writes. *)
let side_writes side ~seconds ~floor =
  let t0 = now () in
  while now () -. t0 < seconds || Samples.count side.write_ms < floor do
    side_write side;
    side_lookup side side.after_write_ms
  done

(** Lookups on the quiet table for [seconds]; on until [floor] of them.
    Lookups that follow writes closely pay for the writes' garbage, so
    the quiet lookups get a part of their own. *)
let side_quiet side ~seconds ~floor =
  (* the first lookup after the last write rebuilds; it is not timed *)
  side_lookup side (Samples.create "untimed");
  let t0 = now () in
  while now () -. t0 < seconds || Samples.count side.point_ms < floor do
    side_lookup side side.point_ms
  done

(** The side load in one stretch, as the traced run uses it: writes
    for [side_write_share] of [seconds], then quiet lookups. Each part
    runs on until its p90 has its samples. The heap is compacted first:
    the phase runs after the workload's engine is dropped, so it starts
    from the same state whatever ran before it. *)
let side_phase side ~seconds =
  Gc.compact ();
  side_writes side ~seconds:(seconds *. side_write_share) ~floor:p90_floor;
  side_quiet side ~seconds:(seconds *. (1.0 -. side_write_share)) ~floor:p90_floor

let plain_point engine sql =
  let t0 = now () in
  let rel = Engine.query engine sql in
  (rel, ms_since t0)

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

(** Every child still running: killed and reaped on every way out. *)
let live_children = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

(** The untraced engine runs give the side load a process of its own,
    forked before any set-up so its heap never holds the workload's
    engine, and alternate it with the iterative queries in [slices]
    slices. Every end-to-end metric then samples the whole run: the
    host's speed drifts by up to a quarter over a few seconds, and a
    side load run in one stretch at the end of the run caught a single
    drift, so its write median spread by a fifth over ten seeds. *)
module Side_process = struct
  type t = {
    pid : int;
    commands : out_channel;
    replies : in_channel;
  }

  (** The child: build the side load's engine, then serve [writes S]
      and [quiet S] (one slice each) until [finish], which sends back
      the point and write samples, the attempts and the failures. *)
  let serve ~seed commands replies =
    let bg, be = baseline_engine () in
    let side = side_load ~engine:be ~graph:bg ~seed ~point:(plain_point be) in
    Gc.compact ();
    let reply () =
      output_string replies "ok\n";
      flush replies
    in
    reply ();
    let rec loop () =
      match String.split_on_char ' ' (input_line commands) with
      | [ "writes"; s ] ->
        side_writes side ~seconds:(float_of_string s) ~floor:0;
        reply ();
        loop ()
      | [ "quiet"; s ] ->
        side_quiet side ~seconds:(float_of_string s) ~floor:0;
        reply ();
        loop ()
      | _ ->
        Marshal.to_channel replies
          (side.point_ms, side.write_ms, side.s_attempted, side.s_failed)
          [];
        flush replies
    in
    loop ()

  let await t =
    match input_line t.replies with
    | "ok" -> ()
    | r -> fail "side load answered %S" r
    | exception End_of_file -> fail "side load process exited early"

  let start ~seed =
    let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
    let rep_r, rep_w = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
      Unix.close cmd_w;
      Unix.close rep_r;
      let code =
        try
          serve ~seed (Unix.in_channel_of_descr cmd_r) (Unix.out_channel_of_descr rep_w);
          0
        with e ->
          prerr_endline ("side load failed: " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
    | pid ->
      Unix.close cmd_r;
      Unix.close rep_w;
      live_children := pid :: !live_children;
      let t =
        { pid; commands = Unix.out_channel_of_descr cmd_w; replies = Unix.in_channel_of_descr rep_r }
      in
      await t;
      t

  (** Run one slice in the child and wait for it. *)
  let run t kind ~seconds =
    Printf.fprintf t.commands "%s %.6f\n%!" kind seconds;
    await t

  (** Stop the child; returns its point and write samples, attempts
      and failures. *)
  let finish t =
    output_string t.commands "finish\n";
    flush t.commands;
    let (result : Samples.t * Samples.t * int * int) =
      try Marshal.from_channel t.replies with End_of_file -> fail "side load process exited early"
    in
    (match Unix.waitpid [] t.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail "side load process failed");
    live_children := List.filter (( <> ) t.pid) !live_children;
    close_out t.commands;
    close_in t.replies;
    result
end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = string * float * string

let emit ~correct ~attempted ~failed (metrics : metric list) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, value, unit) ->
      if not (Float.is_finite value) then fail "metric %s is not finite" name;
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name value unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let success_pct ~attempted ~failed =
  let pct = 100.0 *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted) in
  Printf.printf "  error_pct %.4f (%d failed of %d attempted)\n" (100.0 -. pct) failed
    attempted;
  pct

(** The end-to-end metrics, in this order (percentiles are computed in
    sequence so the log reads top to bottom). The p90s did not repeat
    within a tenth on a shared 2-vCPU host, so they are per-layer
    metrics of the traced run ({!tails}). *)
let end_to_end ~setup_s ~iterative ~throughput ~points ~writes ~rss ~attempted ~failed =
  let p50 = Samples.percentile iterative 50.0 in
  let point50 = Samples.percentile points 50.0 in
  let write50 = Samples.percentile writes 50.0 in
  [
    ("setup_s", setup_s, "s");
    ("latency_p50_ms", p50, "ms");
    ("throughput_qps", throughput, "1/s");
    ("point_latency_p50_ms", point50, "ms");
    ("write_latency_p50_ms", write50, "ms");
    ("peak_rss_mb", rss, "MB");
    ("success_pct", success_pct ~attempted ~failed, "%");
  ]

(* ------------------------------------------------------------------ *)
(* Engine workloads                                                    *)

type engine_setup = {
  g : Graph_gen.t;
  engine : Engine.t;
  first : Relation.t;
  setup_s : float;
  generate_s : float;
  load_s : float;
}

(** Generate, load and warm up (one query) [setup_rounds] times; keep
    the last engine and report medians. *)
let setup_engine spec ~seed =
  let total = Samples.create "setup_s" in
  let gen = Samples.create "storage.generate_s" in
  let load = Samples.create "storage.load_s" in
  let last = ref None in
  for _ = 1 to setup_rounds do
    last := None;
    Gc.compact ();
    let t0 = now () in
    let g = spec.graph seed in
    let t1 = now () in
    let engine = Loader.engine_for ~with_vertex_status:false g in
    let t2 = now () in
    let first = Engine.query engine spec.sql in
    let t3 = now () in
    Samples.add total (t3 -. t0);
    Samples.add gen (t1 -. t0);
    Samples.add load (t2 -. t1);
    last := Some (g, engine, first)
  done;
  let g, engine, first = Option.get !last in
  Printf.printf "  graph: %d nodes, %d edges\n" (Graph_gen.num_nodes g) (Graph_gen.num_edges g);
  {
    g;
    engine;
    first;
    setup_s = Samples.median_of_rounds total;
    generate_s = Samples.median_of_rounds gen;
    load_s = Samples.median_of_rounds load;
  }

(** The closed loop of iterative queries, for [seconds] and on until
    [lat] holds [floor] latencies. Every answer must equal the first
    one's. Returns the attempts, the mismatches and the time taken. *)
let iterate engine sql ~first ~lat ~seconds ~floor =
  let fp0 = fingerprint first in
  let attempted = ref 0 and mismatched = ref 0 in
  let t_start = now () in
  while now () -. t_start < seconds || Samples.count lat < floor do
    incr attempted;
    let t0 = now () in
    (match Engine.query engine sql with
    | rel ->
      Samples.add lat (ms_since t0);
      if fingerprint rel <> fp0 then incr mismatched
    | exception Errors.Error _ -> incr mismatched)
  done;
  (!attempted, !mismatched, now () -. t_start)

let run_engine_untraced spec ~seed ~seconds =
  let side = Side_process.start ~seed in
  let s = setup_engine spec ~seed in
  let g = s.g and first = s.first and setup_s = s.setup_s in
  let lat = Samples.create "latency_ms" in
  let attempted = ref 0 and mismatched = ref 0 and busy = ref 0.0 in
  let slice share = seconds *. share /. float_of_int slices in
  for k = 1 to slices do
    let floor = if k = slices then p50_floor else 0 in
    let a, m, t = iterate s.engine spec.sql ~first ~lat ~seconds:(slice iterative_share) ~floor in
    attempted := !attempted + a;
    mismatched := !mismatched + m;
    busy := !busy +. t;
    let side_share = 1.0 -. iterative_share in
    Side_process.run side "writes" ~seconds:(slice (side_share *. side_write_share));
    Side_process.run side "quiet" ~seconds:(slice (side_share *. (1.0 -. side_write_share)))
  done;
  let rss = peak_rss_mb "self" in
  let points, writes, side_attempted, side_failed = Side_process.finish side in
  (* The oracle runs after the peak is read, so it cannot set it. *)
  let wrong_first =
    match spec.check g first with
    | None -> 0
    | Some msg ->
      Printf.printf "  WRONG ANSWER: %s\n" msg;
      !attempted - !mismatched
  in
  let attempted = !attempted + side_attempted in
  let failed = !mismatched + wrong_first + side_failed in
  let throughput = float_of_int (Samples.count lat) /. !busy in
  ( failed = 0,
    attempted,
    failed,
    end_to_end ~setup_s ~iterative:lat ~throughput ~points ~writes ~rss ~attempted ~failed )

let median samples = Samples.percentile samples 50.0

(** The p90s, reported by the traced run. *)
let tails ~iterative ~points ~writes =
  let p90 = Samples.percentile iterative 90.0 in
  let point90 = Samples.percentile points 90.0 in
  let write90 = Samples.percentile writes 90.0 in
  [
    ("latency_p90_ms", p90, "ms");
    ("point_latency_p90_ms", point90, "ms");
    ("write_latency_p90_ms", write90, "ms");
  ]

(** The traced phase shared by every workload: cycles of plain
    [Engine.query] calls, one decomposed run and one decomposed run
    with the executor's step/iteration trace on; then the side load
    with decomposed lookups. Returns the per-layer metrics of the
    engine, its operators, the runtime and storage, the p90s, the
    in-process point and write p50s, attempts and failures. *)
let trace_engine ~engine ~seed ~sql ~check ~seconds ~spans_path =
  let spans = Spans.create () in
  let plain = Samples.create "engine.query_ms" in
  let iter_ms = Samples.create "exec.iteration_ms" in
  let per name = Samples.create name in
  let step_materialize = per "exec.step.materialize_ms"
  and step_delta = per "exec.step.delta_ms"
  and step_rename = per "exec.step.rename_ms"
  and step_check = per "exec.step.check_ms" in
  let unattributed_pct = per "exec.unattributed_pct" in
  let op_ms = List.map (fun op -> (op, per ("exec.op." ^ Stats.op_name op ^ "_ms"))) Stats.all_ops in
  let count name f = (per name, f) in
  let counts =
    [
      count "rewrite.rules_fired" (fun d -> float_of_int d.rules_fired);
      count "exec.loop_iterations" (fun d -> float_of_int d.stats.Stats.loop_iterations);
      count "exec.rows_materialized" (fun d -> float_of_int d.stats.Stats.rows_materialized);
      count "exec.op.join_probes" (fun d -> float_of_int d.stats.Stats.join_probes);
      count "exec.op.rows_joined" (fun d -> float_of_int d.stats.Stats.rows_joined);
      count "exec.op.rows_aggregated" (fun d -> float_of_int d.stats.Stats.rows_aggregated);
      count "exec.delta.rows_evaluated" (fun d -> float_of_int d.stats.Stats.delta_rows_evaluated);
      count "exec.delta.full_reevals" (fun d -> float_of_int d.stats.Stats.full_reevals);
      count "exec.cache.hit_ratio" (fun d ->
          let h = d.stats.Stats.cache_hits and m = d.stats.Stats.cache_misses in
          if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m));
      count "exec.cache.build_ms_saved" (fun d -> d.stats.Stats.build_ms_saved);
    ]
  in
  let minor = per "gc.minor_words_per_op"
  and promoted = per "gc.promoted_words_per_op"
  and majors = per "gc.major_collections_per_op" in
  let failed = ref 0 and attempted = ref 0 in
  let checked_once = ref false in
  let verify rel =
    if not !checked_once then begin
      checked_once := true;
      match check rel with
      | None -> ()
      | Some msg ->
        Printf.printf "  WRONG ANSWER: %s\n" msg;
        incr failed
    end
  in
  let stop = now () +. (seconds *. iterative_share) in
  let fp0 = ref None in
  let same rel =
    let fp = fingerprint rel in
    match !fp0 with
    | None ->
      fp0 := Some fp;
      verify rel
    | Some f -> if f <> fp then incr failed
  in
  while now () < stop || Samples.count plain < p90_floor do
    attempted := !attempted + plain_per_cycle + 2;
    (* plain, untraced Engine.query calls *)
    for _ = 1 to plain_per_cycle do
      let t0 = now () in
      let rel = Engine.query engine sql in
      Samples.add plain (ms_since t0);
      same rel
    done;
    (* decomposed, with only the benchmark's own spans *)
    let gc0 = Gc.quick_stat () in
    let d = run_decomposed spans ~op:"iter" ~trace_exec:false engine sql in
    let gc1 = Gc.quick_stat () in
    same d.rel;
    Samples.add minor (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    Samples.add promoted (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    Samples.add majors (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    let run_ms = Spans.duration_ms (List.find (fun s -> s.Spans.req = d.root.Spans.req && s.Spans.name = "exec.run") spans.Spans.spans) in
    let op_total = ref 0.0 in
    List.iter
      (fun (op, samples) ->
        let ms = d.stats.Stats.op_wall.(Stats.op_index op) *. 1000.0 in
        op_total := !op_total +. ms;
        Samples.add samples ms)
      op_ms;
    Samples.add unattributed_pct (100.0 *. (run_ms -. !op_total) /. run_ms);
    List.iter (fun (samples, f) -> Samples.add samples (f d)) counts;
    (* decomposed, with the executor's step/iteration trace *)
    let d = run_decomposed spans ~op:"iter+trace" ~trace_exec:true engine sql in
    same d.rel;
    let sums = Hashtbl.create 8 in
    List.iter
      (fun (sp : Trace.span) ->
        match sp.Trace.kind with
        | Trace.Iteration -> Samples.add iter_ms sp.Trace.wall_ms
        | Trace.Step ->
          let label = sp.Trace.label in
          let category =
            match String.index_opt label ':' with
            | Some i -> String.sub label 0 i
            | None -> label
          in
          let key =
            match category with
            | "materialize" -> "materialize"
            | "delta_materialize" -> "delta"
            | "rename" -> "rename"
            | "assert_unique" | "snapshot" | "loop_end" -> "check"
            | _ -> "other"
          in
          Hashtbl.replace sums key
            (sp.Trace.wall_ms +. Option.value ~default:0.0 (Hashtbl.find_opt sums key))
        | _ -> ())
      (Trace.spans (Option.get d.exec_trace));
    let sum k = Option.value ~default:0.0 (Hashtbl.find_opt sums k) in
    Samples.add step_materialize (sum "materialize");
    Samples.add step_delta (sum "delta");
    Samples.add step_rename (sum "rename");
    Samples.add step_check (sum "check")
  done;
  (* [engine] is garbage from here on. *)
  let bg, be = baseline_engine () in
  let side =
    side_load ~engine:be ~graph:bg ~seed ~point:(fun sql ->
        let d = run_decomposed spans ~op:"point" ~trace_exec:false be sql in
        (d.rel, Spans.duration_ms d.root))
  in
  side_phase side ~seconds:(seconds *. (1.0 -. iterative_share));
  let self = Spans.self_ms spans in
  Spans.write_ndjson spans self spans_path;
  let layer op name = median (Spans.samples spans self ~op name) in
  let parse = layer "iter" "sql.parse"
  and compile = layer "iter" "rewrite.compile"
  and run = layer "iter" "exec.run" in
  let query = median plain in
  let traced_total =
    let roots = Samples.create "iter+trace:request.duration" in
    List.iter
      (fun s -> if s.Spans.op = "iter+trace" && s.Spans.parent < 0 then Samples.add roots (Spans.duration_ms s))
      (List.rev spans.Spans.spans);
    median roots
  in
  let metrics =
    [
      ("engine.query_ms", query, "ms");
      ("sql.parse_ms", parse, "ms");
      ("rewrite.compile_ms", compile, "ms");
      ("exec.run_ms", run, "ms");
      ("engine.unattributed_ms", query -. (parse +. compile +. run), "ms");
      ("sql.point_parse_ms", layer "point" "sql.parse", "ms");
      ("rewrite.point_compile_ms", layer "point" "rewrite.compile", "ms");
      ("exec.point_run_ms", layer "point" "exec.run", "ms");
      ("exec.iteration_ms_p50", median iter_ms, "ms");
      ("exec.unattributed_pct", median unattributed_pct, "%");
      ("exec.step.materialize_ms", median step_materialize, "ms");
      ("exec.step.delta_ms", median step_delta, "ms");
      ("exec.step.rename_ms", median step_rename, "ms");
      ("exec.step.check_ms", median step_check, "ms");
    ]
    @ List.map (fun (_, s) -> (s.Samples.name, median s, "ms")) op_ms
    @ List.map
        (fun (s, _) ->
          let unit =
            match s.Samples.name with
            | "exec.cache.hit_ratio" -> "ratio"
            | "exec.cache.build_ms_saved" -> "ms"
            | _ -> "count"
          in
          (s.Samples.name, median s, unit))
        counts
    @ [
        ("gc.minor_words_per_op", median minor, "words");
        ("gc.promoted_words_per_op", median promoted, "words");
        ("gc.major_collections_per_op", median majors, "count");
        ("storage.read_after_write_ms", median side.after_write_ms, "ms");
        ("bench.trace_overhead_pct", 100.0 *. ((traced_total /. query) -. 1.0), "%");
      ]
  in
  let inproc_point = median side.point_ms and inproc_write = median side.write_ms in
  ( metrics,
    tails ~iterative:plain ~points:side.point_ms ~writes:side.write_ms,
    inproc_point,
    inproc_write,
    !attempted + side.s_attempted,
    !failed + side.s_failed )

(* Layers that only the server path exercises report 0 elsewhere. *)
let server_layers_idle =
  [
    ("server.ping_rtt_ms", 0.0, "ms");
    ("server.read_overhead_ms", 0.0, "ms");
    ("server.write_overhead_ms", 0.0, "ms");
    ("server.plan_hit_ratio", 0.0, "ratio");
    ("server.publishes", 0.0, "count");
    ("server.rejected", 0.0, "count");
    ("durable.wal_append_ms", 0.0, "ms");
    ("durable.wal_bytes_per_write", 0.0, "B");
    ("durable.wal_fsyncs_per_write", 0.0, "count");
    ("durable.checkpoints", 0.0, "count");
    ("loadgen.late_p90_ms", 0.0, "ms");
  ]

let run_engine_traced spec ~seed ~seconds ~work =
  let s = setup_engine spec ~seed in
  let storage =
    [ ("storage.generate_s", s.generate_s, "s"); ("storage.load_s", s.load_s, "s") ]
  in
  let metrics, tails, _, _, attempted, failed =
    trace_engine ~engine:s.engine ~seed ~sql:spec.sql ~check:(spec.check s.g) ~seconds
      ~spans_path:(Filename.concat work "spans.ndjson")
  in
  (failed = 0, attempted, failed, tails @ metrics @ storage @ server_layers_idle)

(* ------------------------------------------------------------------ *)
(* server-mixed: the shipped server binary as its own process          *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  with e ->
    Unix.close fd;
    raise e

let send fd req = Protocol.write_frame fd (Protocol.render_request req)

let recv fd =
  match Protocol.read_frame fd with
  | Some payload -> Protocol.parse_response payload
  | None -> raise End_of_file

let call fd req =
  send fd req;
  recv fd

type server = {
  pid : int;
  sock : string;
  conn : Unix.file_descr;  (** the connection that answered the first PING *)
  boot_s : float;
}

(** Spawn [server_main.exe] on a fresh data directory; ready means the
    first answered PING. *)
let boot_server ~exe ~work ~n =
  let dir = Filename.concat work (Printf.sprintf "data%d" n)
  and sock = Filename.concat work (Printf.sprintf "s%d.sock" n)
  and log = Filename.concat work (Printf.sprintf "server%d.log" n) in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; sock; "--gen"; "dblp-like"; "--scale"; Printf.sprintf "%g" server_scale;
        "--data-dir"; dir; "--fsync"; "batch"; "--workers"; string_of_int server_workers;
      |]
      devnull out out
  in
  Unix.close out;
  Unix.close devnull;
  live_children := pid :: !live_children;
  let rec wait () =
    if now () -. t0 > 60.0 then fail "server did not answer PING within 60 s (log: %s)" log;
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live_children := List.filter (( <> ) pid) !live_children;
      fail "server exited during boot (log: %s)" log);
    match connect sock with
    | fd -> (
      match call fd Protocol.Ping with
      | Protocol.Pong -> fd
      | _ -> fail "server answered PING with something else")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.sleepf 0.002;
      wait ()
  in
  let conn = wait () in
  { pid; sock; conn; boot_s = now () -. t0 }

let stop_server srv =
  (try ignore (call srv.conn Protocol.Shutdown) with _ -> ());
  (try Unix.close srv.conn with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  live_children := List.filter (( <> ) srv.pid) !live_children

let server_stats fd =
  match call fd Protocol.Stats with
  | Protocol.Ok_result body -> Metrics.parse body
  | _ -> fail "STATS failed"

let stat_value stats key =
  match List.assoc_opt key stats with
  | Some v -> ( try float_of_string v with _ -> fail "STATS %s is not a number" key)
  | None -> fail "STATS has no %s" key

let prvs_sql =
  Queries.pr_vs ~iterations:prvs_iterations ~final:"SELECT COUNT(*), SUM(Rank) FROM PageRank" ()

type load = {
  prvs_ms : Samples.t;
  point_ms : Samples.t;
  write_ms : Samples.t;  (** from when the write was due *)
  write_service_ms : Samples.t;  (** from when it was sent *)
  late_ms : Samples.t;  (** how late the generator sent each write *)
  mutable reads_done : int;
  mutable read_span : float;
  mutable writes_sent : int;
  mutable attempted : int;
  mutable failed : int;
}

(** One process, one thread, two connections: a closed-loop reader on
    [reader] (PR-VS, then [reader_points_per_prvs] point lookups,
    repeated) and an open-loop writer on [writer] that sends write [j]
    when it is due, pipelining behind any write still in flight. Writes
    fall due as a seeded Poisson process at [write_rate]. With a fixed
    50 ms period, the period of the server's thread-switch tick, the
    write median moved between 12 and 22 ms from run to run; with
    random gaps no run keeps one phase against the tick. Both run for
    [seconds], and on until the reader has [min_prvs] PR-VS
    latencies. *)
let drive ~reader ~writer ~graph ~seed ~seconds ~min_prvs =
  let pts = points_for ~seed graph in
  let num_nodes = Graph_gen.num_nodes graph in
  let expected_nodes = string_of_int (endpoint_count graph) in
  let l =
    {
      prvs_ms = Samples.create "prvs_latency_ms";
      point_ms = Samples.create "point_latency_ms";
      write_ms = Samples.create "write_latency_ms";
      write_service_ms = Samples.create "write_service_ms";
      late_ms = Samples.create "loadgen.late_ms";
      reads_done = 0;
      read_span = 0.0;
      writes_sent = 0;
      attempted = 0;
      failed = 0;
    }
  in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let arrivals = Rng.create (seed + 104_729) in
  let next_due = ref t_start in
  let advance_due () =
    next_due := !next_due -. (Float.log (1.0 -. Rng.float arrivals) /. write_rate)
  in
  let reader_pos = ref 0 in
  let pending_read = ref None in
  let send_read () =
    let kind, sql =
      if !reader_pos mod (reader_points_per_prvs + 1) = 0 then (`Prvs, prvs_sql)
      else
        let k = pts.next_key () in
        (`Point k, point_sql k)
    in
    incr reader_pos;
    l.attempted <- l.attempted + 1;
    send reader (Protocol.Query sql);
    pending_read := Some (kind, now ())
  in
  let in_flight = Queue.create () in
  let running () = now () < t_end || Samples.count l.prvs_ms < min_prvs in
  send_read ();
  let continue = ref true in
  while !continue do
    while running () && !next_due <= now () do
      let j = l.writes_sent and due = !next_due in
      send writer (Protocol.Query (write_sql ~seed ~num_nodes j));
      let sent = now () in
      Samples.add l.late_ms ((sent -. due) *. 1000.0);
      Queue.push (j, due, sent) in_flight;
      advance_due ();
      l.writes_sent <- j + 1;
      l.attempted <- l.attempted + 1
    done;
    let writes_left = running () in
    if !pending_read = None && Queue.is_empty in_flight && not writes_left then continue := false
    else begin
      let fds =
        (if !pending_read <> None then [ reader ] else [])
        @ if Queue.is_empty in_flight then [] else [ writer ]
      in
      let timeout = if writes_left then Float.max 0.0 (!next_due -. now ()) else -1.0 in
      let ready, _, _ =
        try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem reader ready then begin
        let kind, sent = Option.get !pending_read in
        pending_read := None;
        let resp = recv reader in
        let t = now () in
        let ms = (t -. sent) *. 1000.0 in
        (match (resp, kind) with
        | Protocol.Ok_result body, `Prvs -> (
          match parse_table body with
          | Some [ count :: _ ] when count = expected_nodes -> Samples.add l.prvs_ms ms
          | _ -> l.failed <- l.failed + 1)
        | Protocol.Ok_result body, `Point k -> (
          match check_point_text pts k body with
          | None -> Samples.add l.point_ms ms
          | Some _ -> l.failed <- l.failed + 1)
        | _ -> l.failed <- l.failed + 1);
        l.reads_done <- l.reads_done + 1;
        l.read_span <- t -. t_start;
        if running () then send_read ()
      end;
      if List.mem writer ready then begin
        let j, due_at, sent = Queue.pop in_flight in
        let resp = recv writer in
        let t = now () in
        let expected =
          String.concat "" (List.map (Printf.sprintf "%d row(s) affected\n") (write_affects j))
        in
        match resp with
        | Protocol.Ok_result body when body = expected ->
          Samples.add l.write_ms ((t -. due_at) *. 1000.0);
          Samples.add l.write_service_ms ((t -. sent) *. 1000.0)
        | _ -> l.failed <- l.failed + 1
      end
    end
  done;
  l

(** After the writer stops: the server's answers must match an
    in-process engine that replayed the same writes. Returns the
    replica, with the last batch deleted again so it holds the
    generated graph. *)
let final_check ~reader ~seed ~writes =
  let graph = server_graph () in
  let replica = Engine.create () in
  Loader.load_graph replica graph;
  let num_nodes = Graph_gen.num_nodes graph in
  for j = 0 to writes - 1 do
    ignore (Engine.execute_script replica (write_sql ~seed ~num_nodes j))
  done;
  let queries = [ prvs_sql; "SELECT COUNT(*), SUM(src), SUM(dst), SUM(weight) FROM edges" ] in
  let mismatches =
    List.filter
      (fun sql ->
        let expected = Relation.to_table_string (Engine.query replica sql) in
        match call reader (Protocol.Query sql) with
        | Protocol.Ok_result body -> body <> expected
        | _ -> true)
      queries
  in
  List.iter (fun sql -> Printf.printf "  FINAL STATE MISMATCH on: %s\n" (String.sub sql 0 40)) mismatches;
  ignore (Engine.execute replica "DELETE FROM edges WHERE weight >= 100.0");
  (replica, List.length mismatches)

let run_server_untraced ~exe ~work ~seed ~seconds =
  let boots = Samples.create "setup_s" in
  let srv = ref None in
  for n = 1 to server_boots do
    Option.iter stop_server !srv;
    let s = boot_server ~exe ~work ~n in
    Samples.add boots s.boot_s;
    srv := Some s
  done;
  let srv = Option.get !srv in
  let setup_s = Samples.median_of_rounds boots in
  let graph = server_graph () in
  (* warm-up, outside every timing *)
  ignore (call srv.conn (Protocol.Query prvs_sql));
  let writer = connect srv.sock in
  let l = drive ~reader:srv.conn ~writer ~graph ~seed ~seconds ~min_prvs:p50_floor in
  let rss = peak_rss_mb (string_of_int srv.pid) in
  let _, mismatches = final_check ~reader:srv.conn ~seed ~writes:l.writes_sent in
  Unix.close writer;
  stop_server srv;
  let attempted = l.attempted + 2 and failed = l.failed + mismatches in
  Printf.printf "  reader: %d ops, writer: %d writes\n" l.reads_done l.writes_sent;
  ( failed = 0,
    attempted,
    failed,
    end_to_end ~setup_s ~iterative:l.prvs_ms
      ~throughput:(float_of_int l.reads_done /. l.read_span)
      ~points:l.point_ms ~writes:l.write_ms ~rss ~attempted ~failed )

let run_server_traced ~exe ~work ~seed ~seconds =
  (* storage layer: generate and load the server's dataset in-process *)
  let gen = Samples.create "storage.generate_s" and load = Samples.create "storage.load_s" in
  for _ = 1 to setup_rounds do
    let t0 = now () in
    let g = server_graph () in
    let t1 = now () in
    let e = Engine.create () in
    Loader.load_graph e g;
    Samples.add gen (t1 -. t0);
    Samples.add load (now () -. t1)
  done;
  let srv = boot_server ~exe ~work ~n:1 in
  let graph = server_graph () in
  let ping = Samples.create "server.ping_rtt_ms" in
  for _ = 1 to 200 do
    let t0 = now () in
    ignore (call srv.conn Protocol.Ping);
    Samples.add ping (ms_since t0)
  done;
  ignore (call srv.conn (Protocol.Query prvs_sql));
  let before = server_stats srv.conn in
  let writer = connect srv.sock in
  let l = drive ~reader:srv.conn ~writer ~graph ~seed ~seconds ~min_prvs:p90_floor in
  let after = server_stats srv.conn in
  let replica, mismatches = final_check ~reader:srv.conn ~seed ~writes:l.writes_sent in
  Unix.close writer;
  stop_server srv;
  let delta key = stat_value after key -. stat_value before key in
  let writes = float_of_int (Samples.count l.write_ms) in
  let plan_hits = delta "plan_hits" and plan_misses = delta "plan_misses" in
  (* WAL appends timed directly, same policy, the writer's statements *)
  let wal_ms = Samples.create "durable.wal_append_ms" in
  let wal = Wal.create ~path:(Filename.concat work "wal-probe.log") ~policy:Wal.Batch in
  for j = 0 to max 200 l.writes_sent - 1 do
    let sql = write_sql ~seed ~num_nodes:(Graph_gen.num_nodes graph) j in
    let t0 = now () in
    Wal.append wal { Wal.seq = j + 1; digest = 0; sql };
    Samples.add wal_ms (ms_since t0)
  done;
  Wal.close wal;
  let engine_metrics, _, inproc_point, inproc_write, attempted, failed =
    trace_engine ~engine:replica ~seed ~sql:prvs_sql
      ~check:(fun rel ->
        if Relation.cardinality rel = 1
           && Value.to_int (Relation.rows rel).(0).(0) = endpoint_count graph
        then None
        else Some "PR-VS node count")
      ~seconds:0.0
      ~spans_path:(Filename.concat work "spans.ndjson")
  in
  let metrics =
    tails ~iterative:l.prvs_ms ~points:l.point_ms ~writes:l.write_ms
    @ engine_metrics
    @ [
        ("storage.generate_s", Samples.median_of_rounds gen, "s");
        ("storage.load_s", Samples.median_of_rounds load, "s");
        ("server.ping_rtt_ms", median ping, "ms");
        ("server.read_overhead_ms", median l.point_ms -. inproc_point, "ms");
        ("server.write_overhead_ms", median l.write_service_ms -. inproc_write, "ms");
        ( "server.plan_hit_ratio",
          (if plan_hits +. plan_misses = 0.0 then 0.0 else plan_hits /. (plan_hits +. plan_misses)),
          "ratio" );
        ("server.publishes", delta "snapshot_version", "count");
        ("server.rejected", delta "rejected", "count");
        ("durable.wal_append_ms", median wal_ms, "ms");
        ("durable.wal_bytes_per_write", delta "wal_bytes" /. writes, "B");
        ("durable.wal_fsyncs_per_write", delta "wal_fsyncs" /. writes, "count");
        ("durable.checkpoints", stat_value after "checkpoints", "count");
        ("loadgen.late_p90_ms", Samples.percentile l.late_ms 90.0, "ms");
      ]
  in
  let attempted = attempted + l.attempted + 2 and failed = failed + l.failed + mismatches in
  (failed = 0, attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 30 and trace = ref 0 in
  let server_exe = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pagerank|sssp-frontier|forecast|server-mixed");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed (default per workload)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer breakdown (1)");
      ("--server", Arg.Set_string server_exe, "PATH server_main.exe (server-mixed)");
      ("--work-dir", Arg.Set_string work, "DIR scratch directory for this run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] --work-dir DIR";
  let seconds = float_of_int !seconds and traced = !trace = 1 in
  (* A child that died shows as a failed write, not a silent exit. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run () =
    if !work = "" then fail "--work-dir is required";
    let engine spec =
      let seed = Option.value !seed ~default:spec.default_seed in
      Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload seed seconds !trace;
      if traced then run_engine_traced spec ~seed ~seconds ~work:!work
      else run_engine_untraced spec ~seed ~seconds
    in
    match !workload with
    | "pagerank" -> engine pagerank
    | "sssp-frontier" -> engine sssp_frontier
    | "forecast" -> engine forecast
    | "server-mixed" ->
      if !server_exe = "" then fail "--server is required for server-mixed";
      let seed = Option.value !seed ~default:Datasets.dblp_like.Datasets.seed in
      Printf.printf "workload server-mixed seed %d seconds %g trace %d\n%!" seed seconds !trace;
      if traced then run_server_traced ~exe:!server_exe ~work:!work ~seed ~seconds
      else run_server_untraced ~exe:!server_exe ~work:!work ~seed ~seconds
    | w -> fail "unknown workload %S" w
  in
  match run () with
  | correct, attempted, failed, metrics ->
    kill_children ();
    emit ~correct ~attempted ~failed metrics
  | exception e ->
    kill_children ();
    flush stdout;
    (match e with
    | Bench_failure msg -> prerr_endline ("benchmark failed: " ^ msg)
    | e -> prerr_endline ("benchmark failed: " ^ Printexc.to_string e));
    exit 2
