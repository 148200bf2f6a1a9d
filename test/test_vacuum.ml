(* Vacuum (paper §2.2): collecting the PTT entries orphaned by crashes. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema

let ptt_count db = Imdb_tstamp.Ptt.count (E.ptt_exn (Db.engine db))

let test_vacuum_collects_orphans () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let stamps = ref [] in
  for i = 1 to 40 do
    tick clock;
    let ts =
      commit_write db (fun txn ->
          Db.upsert_row db txn ~table:"t" (row (i mod 8) (Printf.sprintf "v%d" i)))
    in
    stamps := (i, ts) :: !stamps
  done;
  (* crash: volatile refcounts are gone; recovery rebuilds the VTT cache
     with undefined refcounts, so the normal GC rule can never fire; the
     first checkpoint whose redo-scan start passes their Commit records
     posts them *)
  let db = Db.crash_and_reopen ~clock db in
  Db.checkpoint db;
  Alcotest.(check bool) "orphans exist" true (ptt_count db > 0);
  Db.checkpoint db;
  Alcotest.(check bool) "checkpoints alone cannot collect" true (ptt_count db > 0);
  (* vacuum forces timestamping to completion and empties the PTT *)
  let removed = Db.vacuum db in
  Alcotest.(check bool) "entries removed" true (removed > 0);
  Alcotest.(check int) "PTT empty" 0 (ptt_count db);
  (* every current and historical state still reads correctly *)
  Db.exec db (fun txn ->
      Alcotest.(check int) "eight keys" 8 (List.length (Db.scan_rows db txn ~table:"t")));
  List.iter
    (fun (i, ts) ->
      let got =
        Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int (i mod 8)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "as of commit %d" i)
        true
        (got = Some (row (i mod 8) (Printf.sprintf "v%d" i))))
    !stamps;
  (* and it survives another crash: the stamping was forced to disk *)
  let db = Db.crash_and_reopen ~clock db in
  let i, ts = List.nth !stamps 20 in
  Alcotest.(check bool) "post-vacuum crash still answers" true
    (Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int (i mod 8)))
    = Some (row (i mod 8) (Printf.sprintf "v%d" i)));
  Db.close db

let test_vacuum_requires_quiet () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  let txn = Db.begin_txn db in
  Db.insert_row db txn ~table:"t" (row 1 "open");
  (match Db.vacuum db with
  | exception Db.Vacuum_blocked _ -> ()
  | _ -> Alcotest.fail "vacuum ran with an active transaction");
  ignore (Db.commit db txn);
  Alcotest.(check bool) "runs when quiet" true (Db.vacuum db >= 0);
  Db.close db

let test_vacuum_mixed_tables () =
  (* a transaction writing both a snapshot and an immortal table: its
     snapshot-side versions must be stamped before the mapping goes *)
  let db, clock = fresh_db () in
  Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema:kv_schema;
  Db.create_table db ~name:"snap" ~mode:Db.Snapshot_table ~schema:kv_schema;
  tick clock;
  ignore
    (commit_write db (fun txn ->
         Db.insert_row db txn ~table:"imm" (row 1 "i");
         Db.insert_row db txn ~table:"snap" (row 1 "s")));
  ignore (Db.vacuum db);
  (* reads on both tables still fine *)
  check_row db ~table:"imm" ~id:1 (Some (row 1 "i"));
  check_row db ~table:"snap" ~id:1 (Some (row 1 "s"));
  (* snapshot reads still see consistent state after more churn *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"snap" (row 1 "s2")));
  check_row db ~table:"snap" ~id:1 (Some (row 1 "s2"));
  Db.close db

let test_gc_durable_across_crash () =
  (* collected PTT entries stay collected after a crash: the checkpoint
     flushes its GC deletions *)
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for i = 1 to 100 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (i mod 5) (Printf.sprintf "v%d" i))))
  done;
  Db.checkpoint db;
  Db.checkpoint db;
  let collected_state = ptt_count db in
  Alcotest.(check bool) "GC collected something" true (collected_state < 100);
  let db = Db.crash_and_reopen ~clock db in
  Alcotest.(check int) "collection survives the crash" collected_state (ptt_count db);
  Db.close db

let suite =
  [
    Alcotest.test_case "vacuum collects orphans" `Quick test_vacuum_collects_orphans;
    Alcotest.test_case "GC durable across crash" `Quick test_gc_durable_across_crash;
    Alcotest.test_case "vacuum requires quiet" `Quick test_vacuum_requires_quiet;
    Alcotest.test_case "vacuum with mixed tables" `Quick test_vacuum_mixed_tables;
  ]
