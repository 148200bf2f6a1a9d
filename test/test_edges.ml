(* Edge cases: times before creation, oversized records, many tables,
   empty tables, batched drivers, and boundary keys. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp

let test_as_of_before_creation () =
  let db, clock = fresh_db () in
  let before = Imdb_clock.Clock.last_issued clock in
  tick clock;
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "x")));
  (* scanning the table as of a time before any data: empty, not an error *)
  let rows = Db.as_of db before (fun txn -> Db.scan_rows_as_of db txn ~table:"t" ~ts:before) in
  Alcotest.(check int) "empty before creation" 0 (List.length rows);
  Alcotest.(check bool) "point read absent" true
    (Db.as_of db before (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1)) = None);
  (* even at timestamp zero *)
  Alcotest.(check bool) "at time zero" true
    (Db.as_of db Ts.zero (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1)) = None);
  Db.close db

let test_empty_table_operations () =
  let db, _clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.exec db (fun txn ->
      Alcotest.(check int) "empty scan" 0 (List.length (Db.scan_rows db txn ~table:"t"));
      Alcotest.(check bool) "empty get" true
        (Db.get_row db txn ~table:"t" ~key:(S.V_int 1) = None);
      Alcotest.(check int) "empty history" 0
        (List.length (Db.history_rows db txn ~table:"t" ~key:(S.V_int 1))));
  (match Db.exec db (fun txn -> Db.delete_row db txn ~table:"t" ~key:(S.V_int 1)) with
  | exception Imdb_core.Table.No_such_key _ -> ()
  | () -> Alcotest.fail "delete of missing key accepted");
  Db.close db

let test_large_payloads () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* payloads a large fraction of a page: versions can barely share *)
  let big n = String.make 2000 (Char.chr (Char.code 'a' + (n mod 26))) in
  let stamps = ref [] in
  for v = 1 to 12 do
    tick clock;
    let ts = commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 (big v))) in
    stamps := (v, ts) :: !stamps
  done;
  check_row db ~table:"t" ~id:1 (Some (row 1 (big 12)));
  List.iter
    (fun (v, ts) ->
      Alcotest.(check bool)
        (Printf.sprintf "big version %d" v)
        true
        (Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1))
        = Some (row 1 (big v))))
    !stamps;
  Db.close db

let test_many_tables () =
  let db, clock = fresh_db () in
  for t = 1 to 20 do
    Db.create_table db ~name:(Printf.sprintf "t%02d" t) ~mode:Db.Immortal ~schema:kv_schema
  done;
  for round = 1 to 10 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           for t = 1 to 20 do
             Db.upsert_row db txn
               ~table:(Printf.sprintf "t%02d" t)
               (row round (Printf.sprintf "r%d" round))
           done))
  done;
  Alcotest.(check int) "22 tables" 20
    (List.length
       (List.filter
          (fun ti -> ti.Imdb_core.Catalog.ti_id >= 10)
          (Db.list_tables db)));
  let db = Db.crash_and_reopen ~clock db in
  for t = 1 to 20 do
    Db.exec db (fun txn ->
        Alcotest.(check int)
          (Printf.sprintf "t%02d rows" t)
          10
          (List.length (Db.scan_rows db txn ~table:(Printf.sprintf "t%02d" t))))
  done;
  Db.close db

let test_batched_driver () =
  let events = Imdb_workload.Moving_objects.generate ~seed:11 ~inserts:20 ~total:400 () in
  let db, clock = Imdb_workload.Driver.fresh_moving_objects ~mode:Db.Immortal () in
  let r =
    Imdb_workload.Driver.run_events_batched ~clock ~batch:25 db ~table:"MovingObjects"
      events
  in
  Alcotest.(check int) "all events" 400 r.Imdb_workload.Driver.rr_events;
  let _, n = Imdb_workload.Driver.timed_scan_current db ~table:"MovingObjects" in
  Alcotest.(check int) "20 objects" 20 n;
  (* 400 events / 25 per txn = 16 commits; mappings reach the PTT only
     at checkpoints, and the run takes none *)
  Alcotest.(check int) "batched commits" 16
    (Imdb_workload.Driver.counter r Imdb_obs.Metrics.txn_commits);
  Alcotest.(check int) "batched PTT inserts" 0
    (Imdb_workload.Driver.counter r Imdb_obs.Metrics.ptt_inserts);
  Db.close db

let test_boundary_keys () =
  let db, clock = fresh_db () in
  let schema =
    S.make
      [ { S.col_name = "k"; col_type = S.T_string };
        { S.col_name = "v"; col_type = S.T_string } ]
  in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let keys = [ ""; "\x00"; "\xff"; "a"; "a\x00"; String.make 100 'z' ] in
  List.iteri
    (fun i k ->
      tick clock;
      ignore
        (commit_write db (fun txn ->
             Db.insert_row db txn ~table:"t" [ S.V_string k; S.V_string (string_of_int i) ])))
    keys;
  Db.exec db (fun txn ->
      Alcotest.(check int) "all boundary keys" (List.length keys)
        (List.length (Db.scan_rows db txn ~table:"t"));
      List.iteri
        (fun i k ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d readable" i)
            true
            (Db.get_row db txn ~table:"t" ~key:(S.V_string k)
            = Some [ S.V_string k; S.V_string (string_of_int i) ]))
        keys);
  (* negative and extreme int keys sort correctly *)
  Db.create_table db ~name:"ints" ~mode:Db.Conventional ~schema:kv_schema;
  let ints = [ min_int; -1; 0; 1; max_int ] in
  List.iter
    (fun i ->
      Db.with_txn db (fun txn ->
          Db.insert_row db txn ~table:"ints" (row i "x")))
    ints;
  Db.exec db (fun txn ->
      let got =
        List.map
          (function S.V_int i :: _ -> i | _ -> 0)
          (Db.scan_rows db txn ~table:"ints")
      in
      Alcotest.(check (list int)) "int order" (List.sort compare ints) got);
  Db.close db

let suite =
  [
    Alcotest.test_case "AS OF before creation" `Quick test_as_of_before_creation;
    Alcotest.test_case "empty table" `Quick test_empty_table_operations;
    Alcotest.test_case "large payloads" `Quick test_large_payloads;
    Alcotest.test_case "many tables" `Quick test_many_tables;
    Alcotest.test_case "batched driver" `Quick test_batched_driver;
    Alcotest.test_case "boundary keys" `Quick test_boundary_keys;
  ]
