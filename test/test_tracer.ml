(* The span tracer: forest well-formedness under random nesting, exact
   ring-overflow accounting, the cheap-when-off guarantee (disabled runs
   leave the metrics exposition byte-identical and deterministic), slow-op
   promotion, sampling, Chrome export shape, and recovery spans across a
   crash. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module Tr = Imdb_obs.Tracer
module J = Imdb_obs.Json

(* A tracer under a deterministic microsecond clock that advances [step]
   on every reading. *)
let fresh_tracer ?metrics ?capacity ?slow_capacity ?slow_threshold_us ?sampling
    ?(step = 7) () =
  let metrics = match metrics with Some m -> m | None -> M.create () in
  let tr =
    Tr.create ?capacity ?slow_capacity ?slow_threshold_us ?sampling ~metrics ()
  in
  let now = ref 0 in
  Tr.set_clock tr (fun () ->
      let v = !now in
      now := v + step;
      v);
  (tr, metrics)

(* --- property: random span forests are well-formed ------------------------- *)

(* A script of nested spans: each node opens a span, visits its children,
   and either returns or raises (the exception is caught at the node
   above — [with_span] must still close the span). *)
type tree = Node of bool (* raise on exit *) * tree list

let gen_tree =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let children = if n <= 0 then return [] else list_size (int_bound 3) (self (n / 2)) in
        map2 (fun raises cs -> Node (raises, cs)) bool children))

exception Scripted

let rec run_node tr depth (Node (raises, children)) =
  Tr.with_span tr (Printf.sprintf "d%d" depth) @@ fun _ ->
  List.iter
    (fun c -> try run_node tr (depth + 1) c with Scripted -> ())
    children;
  if raises then raise Scripted

let rec count_nodes (Node (_, cs)) =
  1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 cs

let prop_forest =
  QCheck.Test.make ~name:"span forest well-formed" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 5) gen_tree))
  @@ fun forest ->
  let tr, metrics = fresh_tracer ~capacity:100_000 () in
  List.iter (fun t -> try run_node tr 0 t with Scripted -> ()) forest;
  let spans = Tr.spans tr in
  let total = List.fold_left (fun acc t -> acc + count_nodes t) 0 forest in
  if List.length spans <> total then
    QCheck.Test.fail_reportf "recorded %d spans for %d nodes"
      (List.length spans) total;
  if M.get metrics M.trace_spans <> total then
    QCheck.Test.fail_reportf "trace.spans counter %d <> %d"
      (M.get metrics M.trace_spans) total;
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.Tr.c_id <= 0 then QCheck.Test.fail_reportf "non-positive id";
      if Hashtbl.mem by_id c.Tr.c_id then
        QCheck.Test.fail_reportf "duplicate id %d" c.Tr.c_id;
      Hashtbl.add by_id c.Tr.c_id c)
    spans;
  List.iter
    (fun c ->
      if c.Tr.c_dur_us < 0 then QCheck.Test.fail_reportf "negative duration";
      if c.Tr.c_parent <> 0 then
        match Hashtbl.find_opt by_id c.Tr.c_parent with
        | None -> QCheck.Test.fail_reportf "dangling parent %d" c.Tr.c_parent
        | Some p ->
            (* parent opened first (smaller id, earlier start) and closed
               after the child: its interval contains the child's *)
            if p.Tr.c_id >= c.Tr.c_id then
              QCheck.Test.fail_reportf "parent id %d >= child id %d" p.Tr.c_id
                c.Tr.c_id;
            if p.Tr.c_start_us > c.Tr.c_start_us then
              QCheck.Test.fail_reportf "parent starts after child";
            if
              p.Tr.c_start_us + p.Tr.c_dur_us
              < c.Tr.c_start_us + c.Tr.c_dur_us
            then QCheck.Test.fail_reportf "child outlives parent")
    spans;
  true

(* --- ring overflow: exact drop accounting ----------------------------------- *)

let test_ring_overflow () =
  let capacity = 32 and n = 100 in
  let tr, metrics = fresh_tracer ~capacity () in
  for i = 1 to n do
    Tr.with_span tr "op" @@ fun sp -> Tr.add_attr sp "i" string_of_int i
  done;
  let spans = Tr.spans tr in
  Alcotest.(check int) "ring holds capacity" capacity (List.length spans);
  Alcotest.(check int) "dropped = overflow" (n - capacity) (Tr.dropped tr);
  Alcotest.(check int) "trace.dropped counter" (n - capacity)
    (M.get metrics M.trace_drops);
  Alcotest.(check int) "trace.spans counts all" n (M.get metrics M.trace_spans);
  (* the ring keeps the newest spans, oldest first *)
  let ids = List.map (fun c -> c.Tr.c_id) spans in
  Alcotest.(check (list int)) "newest survive"
    (List.init capacity (fun i -> n - capacity + 1 + i))
    ids;
  Tr.reset tr;
  Alcotest.(check int) "reset clears ring" 0 (List.length (Tr.spans tr));
  Alcotest.(check int) "reset clears drops" 0 (Tr.dropped tr)

(* --- sampling: every n-th root, children inherit ----------------------------- *)

let test_sampling () =
  let tr, _ = fresh_tracer ~sampling:3 () in
  for _ = 1 to 9 do
    Tr.with_span tr "root" @@ fun _ ->
    Tr.with_span tr "child" @@ fun _ -> ()
  done;
  let spans = Tr.spans tr in
  (* 3 of 9 roots sampled, each with its child: whole trees, never torn *)
  Alcotest.(check int) "3 trees of 2 spans" 6 (List.length spans);
  let roots = List.filter (fun c -> c.Tr.c_parent = 0) spans in
  Alcotest.(check int) "3 roots" 3 (List.length roots);
  List.iter
    (fun c ->
      if c.Tr.c_parent <> 0 then
        Alcotest.(check bool) "child's parent is a sampled root" true
          (List.exists (fun r -> r.Tr.c_id = c.Tr.c_parent) roots))
    spans

(* --- slow-op promotion -------------------------------------------------------- *)

let test_slow_ops () =
  (* clock step 7us and two reads per span => ~7us spans; threshold 1000us
     catches only the artificially long one *)
  let tr, metrics = fresh_tracer ~slow_threshold_us:1000 ~slow_capacity:4 () in
  for _ = 1 to 5 do
    Tr.with_span tr "fast" @@ fun _ -> ()
  done;
  (Tr.with_span tr "slow" @@ fun _ ->
   (* burn clock readings via instants *)
   for _ = 1 to 400 do
     Tr.instant tr "tick"
   done);
  let slow = Tr.slow_ops tr in
  Alcotest.(check int) "one slow op" 1 (List.length slow);
  Alcotest.(check string) "it is the slow span" "slow" (List.hd slow).Tr.c_name;
  Alcotest.(check bool) "duration over threshold" true
    ((List.hd slow).Tr.c_dur_us >= 1000);
  Alcotest.(check int) "trace.slow_ops counter" 1
    (M.get metrics M.trace_slow_ops)

(* --- disabled mode: zero observable footprint -------------------------------- *)

(* The same deterministic workload, parameterized only by config. *)
let run_workload config =
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for v = 1 to 40 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (v mod 8) (Printf.sprintf "v%d" v))))
  done;
  tick clock;
  let ts = Imdb_clock.Clock.last_issued (Db.engine db).E.clock in
  Db.exec db (fun txn -> ignore (Db.scan_rows_as_of db txn ~table:"t" ~ts));
  Db.checkpoint db;
  let json = M.to_json_string (Db.metrics db) in
  let snap = M.snapshot (Db.metrics db) in
  Db.close db;
  (json, snap)

let test_disabled_deterministic () =
  let disabled = { E.default_config with E.trace_sampling = 0 } in
  let j1, _ = run_workload disabled in
  let j2, _ = run_workload disabled in
  Alcotest.(check string) "disabled runs byte-identical" j1 j2

let test_disabled_vs_enabled_counters () =
  let disabled = { E.default_config with E.trace_sampling = 0 } in
  let enabled = { E.default_config with E.trace_sampling = 1 } in
  let _, off = run_workload disabled in
  let _, on = run_workload enabled in
  let is_trace name =
    name = M.trace_spans || name = M.trace_drops || name = M.trace_slow_ops
  in
  let strip snap = List.filter (fun (n, _) -> not (is_trace n)) snap in
  (* tracing changes nothing the engine counts — only the trace.* counters *)
  Alcotest.(check (list (pair string int)))
    "non-trace counters identical" (strip off) (strip on);
  let on_trace = List.assoc M.trace_spans on in
  Alcotest.(check bool) "enabled run recorded spans" true (on_trace > 0);
  Alcotest.(check int) "disabled run recorded none" 0
    (try List.assoc M.trace_spans off with Not_found -> 0)

let test_null_tracer_is_free () =
  Alcotest.(check bool) "null disabled" false (Tr.enabled Tr.null);
  (* no spans, no state, usable from any context *)
  Tr.with_span Tr.null "x" @@ fun sp ->
  Tr.add_attr sp "k" Fun.id "v";
  Alcotest.(check int) "null span id" 0 (Tr.span_id sp);
  Tr.instant Tr.null "i";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Tr.spans Tr.null))

(* Attribute values are built only for sampled spans: under the null
   tracer and inside an unsampled root, neither [add_attr]'s formatter nor
   [instant]'s thunk runs, while a sampled root still records both. *)
let test_lazy_attrs () =
  let formatted = ref [] in
  let fmt tag v =
    formatted := tag :: !formatted;
    v
  in
  let body tr tag =
    Tr.with_span tr "root" @@ fun sp ->
    Tr.add_attr sp "k" (fmt tag) "v";
    (Tr.with_span tr "child" @@ fun csp -> Tr.add_attr csp "c" (fmt tag) "w");
    Tr.instant tr "mark" ~attrs:(fun () -> [ ("i", fmt tag "x") ])
  in
  body Tr.null "null";
  Alcotest.(check (list string)) "null tracer formats nothing" [] !formatted;
  let tr, _ = fresh_tracer ~sampling:2 () in
  body tr "sampled";
  body tr "unsampled";
  Alcotest.(check (list string)) "only the sampled root formats"
    [ "sampled"; "sampled"; "sampled" ] !formatted;
  let attrs name =
    List.filter_map
      (fun c -> if c.Tr.c_name = name then Some c.Tr.c_attrs else None)
      (Tr.spans tr)
  in
  Alcotest.(check (list (list (pair string string)))) "root attrs" [ [ ("k", "v") ] ]
    (attrs "root");
  Alcotest.(check (list (list (pair string string)))) "child attrs" [ [ ("c", "w") ] ]
    (attrs "child");
  Alcotest.(check (list (list (pair string string)))) "instant attrs" [ [ ("i", "x") ] ]
    (attrs "mark")

(* The engine's spans carry the same attributes as when they were built
   eagerly: names, order and values. *)
let test_engine_span_attrs () =
  let config = { E.default_config with E.trace_sampling = 1 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Tr.reset (Db.tracer db);
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 "a")));
  let keys name =
    List.filter_map
      (fun c -> if c.Tr.c_name = name then Some (List.map fst c.Tr.c_attrs) else None)
      (Tr.spans (Db.tracer db))
  in
  Alcotest.(check (list (list string))) "txn.begin" [ [ "tid" ] ] (keys "txn.begin");
  Alcotest.(check (list (list string))) "txn.update" [ [ "table" ] ] (keys "txn.update");
  Alcotest.(check (list (list string))) "txn.commit" [ [ "tid"; "ts"; "writes" ] ]
    (keys "txn.commit");
  Alcotest.(check (list (list string))) "wal.flush" [ [ "bytes"; "frames" ] ]
    (keys "wal.flush");
  let commit =
    List.find (fun c -> c.Tr.c_name = "txn.commit") (Tr.spans (Db.tracer db))
  in
  Alcotest.(check string) "writes value" "1" (List.assoc "writes" commit.Tr.c_attrs);
  Db.close db

(* --- recovery spans across a crash ------------------------------------------- *)

let test_recovery_spans () =
  let config = { E.default_config with E.trace_sampling = 1 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for v = 1 to 20 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row v (Printf.sprintf "v%d" v))))
  done;
  (* leave a loser so undo has work *)
  let loser = Db.begin_txn db in
  Db.upsert_row db loser ~table:"t" (row 99 "loser");
  let db = Db.crash_and_reopen ~config ~clock db in
  let spans = Tr.spans (Db.tracer db) in
  let find name =
    match List.find_opt (fun c -> c.Tr.c_name = name) spans with
    | Some c -> c
    | None -> Alcotest.failf "missing %s span" name
  in
  let recovery = find "recovery" in
  Alcotest.(check int) "recovery is a root" 0 recovery.Tr.c_parent;
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (phase ^ " nests under recovery")
        recovery.Tr.c_id (find phase).Tr.c_parent)
    [ "recovery.redo"; "recovery.undo" ];
  (* analysis is part of redo's one pass over the log, not a phase *)
  Alcotest.(check bool) "no analysis span" false
    (List.exists (fun c -> c.Tr.c_name = "recovery.analysis") spans);
  let redo = find "recovery.redo" in
  let attr k c =
    match List.assoc_opt k c.Tr.c_attrs with
    | Some v -> Int64.of_string v
    | None -> Alcotest.failf "missing attr %s" k
  in
  (* the analysis bookkeeping reports on the pass's span *)
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " counted") true (Int64.compare (attr k redo) 0L >= 0))
    [ "att"; "dirty_pages"; "commits" ];
  let redo_start = attr "redo_start" redo and redo_end = attr "redo_end" redo in
  Alcotest.(check bool) "redo progressed monotonically" true
    (Int64.compare redo_end redo_start >= 0);
  (* the LSN-progress gauge landed on the last applied LSN *)
  Alcotest.(check bool) "redo_lsn gauge reached redo_end" true
    (M.gauge (Db.metrics db) M.recovery_redo_lsn = Int64.to_int redo_end);
  (* the recovery-ending checkpoint nests under the recovery span *)
  let ckpt = find "checkpoint" in
  Alcotest.(check int) "checkpoint nests under recovery" recovery.Tr.c_id
    ckpt.Tr.c_parent;
  Db.close db

(* A time split's encode and index insert nest under its span, so a
   traced split's self time is what its children do not explain. *)
let test_time_split_children () =
  let config = { E.default_config with E.trace_sampling = 1; page_size = 1024 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for v = 1 to 60 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (v mod 3) (String.make 40 'x'))))
  done;
  let spans = Tr.spans (Db.tracer db) in
  let splits = List.filter (fun c -> c.Tr.c_name = "split.time") spans in
  Alcotest.(check bool) "the workload time-splits" true (splits <> []);
  List.iter
    (fun split ->
      List.iter
        (fun child ->
          Alcotest.(check bool)
            (child ^ " nests under split.time")
            true
            (List.exists
               (fun c -> c.Tr.c_name = child && c.Tr.c_parent = split.Tr.c_id)
               spans))
        [ "split.encode"; "tsb.insert" ])
    splits;
  Db.close db

(* --- exports ------------------------------------------------------------------ *)

let obj_field name = function
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_chrome_export () =
  let tr, _ = fresh_tracer () in
  (Tr.with_span tr "outer" ~attrs:[ ("k", "v") ] @@ fun _ ->
   Tr.instant tr "mark";
   Tr.with_span tr "inner" @@ fun _ -> ());
  match obj_field "traceEvents" (Tr.to_chrome_json tr) with
  | Some (J.List events) ->
      Alcotest.(check int) "three events" 3 (List.length events);
      let phases =
        List.filter_map
          (fun e ->
            match (obj_field "name" e, obj_field "ph" e) with
            | Some (J.String n), Some (J.String ph) -> Some (n, ph)
            | _ -> None)
          events
      in
      Alcotest.(check bool) "spans are complete events" true
        (List.mem ("outer", "X") phases && List.mem ("inner", "X") phases);
      Alcotest.(check bool) "instants are i events" true
        (List.mem ("mark", "i") phases);
      List.iter
        (fun e ->
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (k ^ " present") true
                (obj_field k e <> None))
            [ "ts"; "pid"; "tid"; "args" ])
        events
  | _ -> Alcotest.fail "no traceEvents list"

let test_native_export () =
  let tr, _ = fresh_tracer () in
  Tr.with_span tr "op" (fun _ -> ());
  let j = Tr.to_json tr in
  (match obj_field "spans" j with
  | Some (J.List [ span ]) ->
      Alcotest.(check bool) "span has name" true
        (obj_field "name" span = Some (J.String "op"))
  | _ -> Alcotest.fail "expected one span");
  match obj_field "dropped" j with
  | Some (J.Int 0) -> ()
  | _ -> Alcotest.fail "expected dropped = 0"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_forest;
    Alcotest.test_case "ring overflow accounting" `Quick test_ring_overflow;
    Alcotest.test_case "root sampling, whole trees" `Quick test_sampling;
    Alcotest.test_case "slow-op promotion" `Quick test_slow_ops;
    Alcotest.test_case "disabled runs deterministic" `Quick test_disabled_deterministic;
    Alcotest.test_case "tracing leaves counters unchanged" `Quick
      test_disabled_vs_enabled_counters;
    Alcotest.test_case "null tracer is inert" `Quick test_null_tracer_is_free;
    Alcotest.test_case "attrs built only for sampled spans" `Quick test_lazy_attrs;
    Alcotest.test_case "engine span attrs" `Quick test_engine_span_attrs;
    Alcotest.test_case "recovery spans across a crash" `Quick test_recovery_spans;
    Alcotest.test_case "time split has encode and index children" `Quick
      test_time_split_children;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export;
    Alcotest.test_case "native export shape" `Quick test_native_export;
  ]
