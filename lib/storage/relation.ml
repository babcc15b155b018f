(** An immutable materialized relation: a schema plus its tuples.

    All executor operators consume and produce relations; the paper's
    engine likewise materializes intermediate results of iterative CTEs
    (§IV: "iterative CTEs mostly materialize intermediate results").

    Since the columnar core landed, a relation holds its tuples in
    either (or both) of two interchangeable views: a [Row.t array] and
    a typed {!Colbatch.t}. Constructors install one view; the other is
    materialized lazily on first demand and then memoized, so a
    columnar pipeline never pays for rows it does not read and the
    row-view shim keeps every legacy consumer working unchanged. The
    memo cells are [Atomic.t] because distributed partitions share
    relations across domains: a racy double conversion only wastes
    work, never publishes a half-built array. *)

type t = {
  schema : Schema.t;
  card : int;
  rows_v : Row.t array option Atomic.t;
  cols_v : Colbatch.t option Atomic.t;
}

(* At least one view is always present; constructors guarantee it. *)

let make schema rows =
  Array.iter
    (fun r ->
      if Array.length r <> Schema.arity schema then
        invalid_arg
          (Printf.sprintf "Relation.make: row arity %d <> schema arity %d"
             (Array.length r) (Schema.arity schema)))
    rows;
  {
    schema;
    card = Array.length rows;
    rows_v = Atomic.make (Some rows);
    cols_v = Atomic.make None;
  }

(** Trusted constructor for operator outputs whose rows are built from
    already-validated relations: skips the O(n) per-row arity check of
    {!make}. External ingestion (CSV, DML, VALUES) must keep using
    {!make}. *)
let make_trusted schema rows =
  {
    schema;
    card = Array.length rows;
    rows_v = Atomic.make (Some rows);
    cols_v = Atomic.make None;
  }

(** Trusted columnar constructor: the batch's arity must match the
    schema's (operator outputs are built from validated inputs). *)
let of_batch schema batch =
  {
    schema;
    card = Colbatch.length batch;
    rows_v = Atomic.make None;
    cols_v = Atomic.make (Some batch);
  }

let of_lists schema rows = make schema (Array.of_list (List.map Row.of_list rows))
let empty schema = make_trusted schema [||]
let schema t = t.schema
let cardinality t = t.card
let is_empty t = t.card = 0

(** The row view, materializing (and memoizing) it from the columnar
    view on first use. *)
let rows t =
  match Atomic.get t.rows_v with
  | Some r -> r
  | None ->
    let r =
      match Atomic.get t.cols_v with
      | Some b -> Colbatch.to_rows b
      | None -> [||] (* unreachable: some view always exists *)
    in
    Atomic.set t.rows_v (Some r);
    r

(** The columnar view, converting (and memoizing) from rows on first
    use. *)
let columnar t =
  match Atomic.get t.cols_v with
  | Some b -> b
  | None ->
    let b =
      match Atomic.get t.rows_v with
      | Some r -> Colbatch.of_rows ~arity:(Schema.arity t.schema) r
      | None -> Colbatch.make ~len:0 [||]
    in
    Atomic.set t.cols_v (Some b);
    b

(** The columnar view only if it is already materialized — lets diff
    fast paths avoid forcing a conversion just to compare. *)
let columnar_opt t = Atomic.get t.cols_v

let iter f t = Array.iter f (rows t)
let fold f init t = Array.fold_left f init (rows t)

(** [column t name] extracts one column as a value array. *)
let column t name =
  let i = Schema.find_exn t.schema name in
  match Atomic.get t.cols_v with
  | Some b when Atomic.get t.rows_v = None -> Colbatch.to_values (Colbatch.col b i)
  | _ -> Array.map (fun r -> r.(i)) (rows t)

(** [key_values t i] — column [i] as boxed values, read from whichever
    view is already materialized (the unique-key check's accessor: it
    must not force a full row materialization of a columnar CTE every
    iteration). *)
let key_values t i =
  match Atomic.get t.rows_v with
  | Some rs -> Array.map (fun r -> r.(i)) rs
  | None -> (
    match Atomic.get t.cols_v with
    | Some b -> Colbatch.to_values (Colbatch.col b i)
    | None -> [||])

(** Structural equality as a {e bag} of rows (order-insensitive):
    relations are sets/bags in SQL, so tests compare with this. *)
let equal_bag a b =
  Schema.arity a.schema = Schema.arity b.schema
  && cardinality a = cardinality b
  &&
  let sa = Array.copy (rows a) and sb = Array.copy (rows b) in
  Array.sort Row.compare sa;
  Array.sort Row.compare sb;
  Array.for_all2 Row.equal sa sb

(* ------------------------------------------------------------------ *)
(* Versioned diffing (Delta termination + semi-naive evaluation)       *)

(** Positional fast path precondition: same cardinality and the same
    key sequence, position by position. Iterative loops keep key order
    stable, so this is the common case. *)
let keys_aligned ~key_idx (prev : t) (next : t) =
  cardinality prev = cardinality next
  &&
  match (columnar_opt prev, columnar_opt next) with
  | Some pb, Some nb ->
    let pk = Colbatch.col pb key_idx and nk = Colbatch.col nb key_idx in
    let n = cardinality next in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      if not (Colbatch.cell_equal pk !i nk !i) then ok := false;
      incr i
    done;
    !ok
  | _ ->
    let pr = rows prev and nr = rows next in
    let n = cardinality next in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      if not (Value.equal pr.(!i).(key_idx) nr.(!i).(key_idx)) then ok := false;
      incr i
    done;
    !ok

(** Positional row comparison over whichever views exist, avoiding a
    row materialization when both sides are columnar. *)
let row_equal_positional (prev : t) (next : t) =
  match (columnar_opt prev, columnar_opt next) with
  | Some pb, Some nb -> fun i -> Colbatch.rows_equal_at pb i nb i
  | _ ->
    let pr = rows prev and nr = rows next in
    fun i -> Row.equal pr.(i) nr.(i)

(** Rows changed between two versions keyed by column [key_idx]; used
    by the Delta termination condition and by tests. Counts rows whose
    key is present in both but whose payload differs, plus rows present
    in only one side. *)
let delta_count ~key_idx (prev : t) (next : t) =
  if keys_aligned ~key_idx prev next then begin
    (* Lockstep count over the columnar (or row) views: no hashing, no
       row boxing — this runs once per iteration over the whole CTE. *)
    let eq = row_equal_positional prev next in
    let changed = ref 0 in
    for i = 0 to cardinality next - 1 do
      if not (eq i) then incr changed
    done;
    !changed
  end
  else begin
    let index = Hashtbl.create (cardinality prev) in
    Array.iter (fun r -> Hashtbl.replace index r.(key_idx) r) (rows prev);
    let changed = ref 0 in
    let seen = ref 0 in
    Array.iter
      (fun r ->
        match Hashtbl.find_opt index r.(key_idx) with
        | Some old ->
          incr seen;
          if not (Row.equal old r) then incr changed
        | None -> incr changed)
      (rows next);
    (* Rows that vanished also count as changed. *)
    !changed + (cardinality prev - !seen)
  end

(* Positionally aligned versions: new-then-old rows of every differing
   position, in key order. *)
let changed_aligned (prev : t) (next : t) =
  let prev_rows = rows prev and next_rows = rows next in
  let out = ref [] in
  for i = cardinality next - 1 downto 0 do
    let old = prev_rows.(i) and r = next_rows.(i) in
    if not (Row.equal old r) then out := r :: old :: !out
  done;
  make_trusted next.schema (Array.of_list !out)

(** The rows behind {!delta_count}: every [next] row whose key is new or
    whose payload differs from [prev], plus the {e previous} version of
    changed and vanished keys. Returning both versions lets semi-naive
    evaluation chase join partners a changed row used to reach as well
    as the ones it reaches now. Schema is taken from [next]. *)
let changed_rows ~key_idx (prev : t) (next : t) =
  (* Fast path: iterative loops keep the key sequence stable from one
     iteration to the next, so when both versions list the same keys in
     the same positions the diff is a single lockstep walk with no
     hashing — this runs once per iteration over the whole CTE, so its
     constant matters. *)
  if keys_aligned ~key_idx prev next then changed_aligned prev next
  else begin
    let index = Hashtbl.create (cardinality prev) in
    Array.iter (fun r -> Hashtbl.replace index r.(key_idx) r) (rows prev);
    let out = ref [] in
    let seen = Hashtbl.create (cardinality next) in
    Array.iter
      (fun r ->
        Hashtbl.replace seen r.(key_idx) ();
        match Hashtbl.find_opt index r.(key_idx) with
        | Some old -> if not (Row.equal old r) then out := old :: r :: !out
        | None -> out := r :: !out)
      (rows next);
    Array.iter
      (fun r -> if not (Hashtbl.mem seen r.(key_idx)) then out := r :: !out)
      (rows prev);
    make_trusted next.schema (Array.of_list (List.rev !out))
  end

(** [changed_rows_bounded ~key_idx ~cutoff prev next] is
    [Some (changed_rows prev next)] when fewer than [cutoff] distinct
    keys changed, and [None] as soon as the count reaches [cutoff]
    (early exit, before building any row list). This is the semi-naive
    cutoff probe: PageRank-style full-churn iterations abandon the diff
    roughly halfway through the scan instead of materializing a
    relation of every old+new pair only to discard it. [cutoff] must be
    at least 1. *)
let changed_rows_bounded ~key_idx ~cutoff (prev : t) (next : t) =
  let n = cardinality next in
  if keys_aligned ~key_idx prev next then begin
    (* Keys are unique per the executor's unique-key check, so each
       differing position is one distinct changed key. First count with
       early exit (no allocation); only materialize when under the
       cutoff. *)
    let eq = row_equal_positional prev next in
    let changed = ref 0 in
    let i = ref 0 in
    while !changed < cutoff && !i < n do
      if not (eq !i) then incr changed;
      incr i
    done;
    if !changed >= cutoff then None else Some (changed_aligned prev next)
  end
  else begin
    (* Mirror the hashed path of {!changed_rows}, counting distinct
       changed keys (changed payloads, inserts, vanished) with the same
       early exit. *)
    let index = Hashtbl.create (cardinality prev) in
    Array.iter (fun r -> Hashtbl.replace index r.(key_idx) r) (rows prev);
    let keys = Hashtbl.create 64 in
    let mark k = if not (Hashtbl.mem keys k) then Hashtbl.replace keys k () in
    let seen = Hashtbl.create (cardinality next) in
    let next_rows = rows next in
    let i = ref 0 in
    while Hashtbl.length keys < cutoff && !i < n do
      let r = next_rows.(!i) in
      Hashtbl.replace seen r.(key_idx) ();
      (match Hashtbl.find_opt index r.(key_idx) with
      | Some old -> if not (Row.equal old r) then mark r.(key_idx)
      | None -> mark r.(key_idx));
      incr i
    done;
    if Hashtbl.length keys < cutoff then begin
      let prev_rows = rows prev in
      let j = ref 0 in
      while Hashtbl.length keys < cutoff && !j < Array.length prev_rows do
        let r = prev_rows.(!j) in
        (* [seen] is complete here: the first loop exhausted [next]. *)
        if not (Hashtbl.mem seen r.(key_idx)) then mark r.(key_idx);
        incr j
      done
    end;
    if Hashtbl.length keys >= cutoff then None
    else Some (changed_rows ~key_idx prev next)
  end

let sorted t =
  let rs = Array.copy (rows t) in
  Array.sort Row.compare rs;
  make_trusted t.schema rs

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema (cardinality t);
  Array.iteri
    (fun i r -> if i < 20 then Format.fprintf fmt "@\n  %a" Row.pp r)
    (rows t);
  if cardinality t > 20 then Format.fprintf fmt "@\n  ..."

(** Render as an aligned ASCII table (CLI output). *)
let to_table_string ?(max_rows = 50) t =
  let headers = Array.of_list (Schema.column_names t.schema) in
  let shown = min max_rows (cardinality t) in
  let rs = rows t in
  let cells = Array.init shown (fun i -> Array.map Value.to_string rs.(i)) in
  let widths =
    Array.mapi
      (fun c h ->
        Array.fold_left (fun w row -> max w (String.length row.(c)))
          (String.length h) cells)
      headers
  in
  let buf = Buffer.create 256 in
  let line ch =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) ch)) widths;
    Buffer.add_string buf "+\n"
  in
  let render row =
    Array.iteri
      (fun c cell ->
        Buffer.add_string buf (Printf.sprintf "| %-*s " widths.(c) cell))
      row;
    Buffer.add_string buf "|\n"
  in
  line '-';
  render headers;
  line '-';
  Array.iter render cells;
  line '-';
  if cardinality t > shown then
    Buffer.add_string buf
      (Printf.sprintf "(%d more rows)\n" (cardinality t - shown));
  Buffer.add_string buf (Printf.sprintf "(%d rows)\n" (cardinality t));
  Buffer.contents buf
