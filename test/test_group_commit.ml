(* Group commit at the engine level.  Every writing commit flushes the
   log through its own commit record before [Db.commit] returns, so the
   acknowledgment ([tx_durable]) is always set by the time a caller sees
   the timestamp.  Concurrent committers may share one sync (the WAL's
   leader/follower flush); they never skip it. *)

open Helpers
module M = Imdb_obs.Metrics
module Wal = Imdb_wal.Wal

let gc_config = { default_config with E.auto_checkpoint_every = 0 }

(* Commit a single row write and keep the transaction handle so the test
   can watch its durability acknowledgment. *)
let commit_keep db i v =
  let txn = Db.begin_txn db in
  Db.upsert_row db txn ~table:"t" (row i v);
  ignore (Db.commit db txn);
  txn

(* Fresh db with table "t", all setup-time commit waiters drained so the
   counters under test start from a clean batch. *)
let setup_db () =
  let db, clock = fresh_db ~config:gc_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.checkpoint db;
  Alcotest.(check int) "setup waiters drained" 0
    (Wal.pending_commits (Db.engine db).E.wal);
  (db, clock)

let test_window_one_syncs_every_commit () =
  let db, clock = setup_db () in
  let m = Db.metrics db in
  let f0 = M.get m M.log_flushes in
  tick clock;
  let t1 = commit_keep db 1 "x" in
  Alcotest.(check bool) "durable at commit return" true t1.E.tx_durable;
  Alcotest.(check int) "one sync for one commit" (f0 + 1) (M.get m M.log_flushes);
  Alcotest.(check int) "no waiter left behind" 0
    (Wal.pending_commits (Db.engine db).E.wal);
  Db.close db

(* Two sessions on two domains commit over a log whose sync sleeps 1 ms,
   so their commit flushes overlap.  Once both domains have joined, every
   commit either returned must be acknowledged, no waiter may be left
   queued, and sharing may only ever save syncs. *)
let test_sessions_durable_at_return () =
  let base = Wal.Device.in_memory () in
  let log_device =
    { base with Wal.Device.sync = (fun () -> Unix.sleepf 0.001; base.Wal.Device.sync ()) }
  in
  let config = { gc_config with E.lock_wait_timeout_ms = 2000 } in
  let db =
    Db.open_devices ~config ~disk:(Imdb_storage.Disk.in_memory ~page_size:config.E.page_size ())
      ~log_device ()
  in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.checkpoint db;
  let m = Db.metrics db in
  let f0 = M.get m M.log_flushes in
  let per_session = 40 in
  let worker sid () =
    let s = Db.session db in
    List.init per_session (fun i ->
        let txn = Db.Session.begin_txn s in
        Db.Session.upsert s txn ~table:"t"
          ~key:(Imdb_core.Schema.encode_key (Imdb_core.Schema.V_int ((sid * 1000) + i)))
          ~payload:(Printf.sprintf "s%d-%d" sid i);
        match Db.Session.commit s txn with
        | Some _ -> txn
        | None -> Alcotest.fail "a writing commit returned no timestamp")
  in
  let domains = List.init 2 (fun sid -> Domain.spawn (worker sid)) in
  let txns = List.concat_map Domain.join domains in
  let commits = List.length txns in
  Alcotest.(check int) "every commit returned" (2 * per_session) commits;
  Alcotest.(check bool) "every returned commit is durable" true
    (List.for_all (fun t -> t.E.tx_durable) txns);
  Alcotest.(check int) "no waiter left behind" 0
    (Wal.pending_commits (Db.engine db).E.wal);
  let flushes = M.get m M.log_flushes - f0 in
  if flushes > commits then
    Alcotest.failf "%d log syncs for %d commits: sharing may only save syncs" flushes
      commits;
  Db.close db

let suite =
  [
    Alcotest.test_case "window 1 syncs every commit" `Quick
      test_window_one_syncs_every_commit;
    Alcotest.test_case "2 sessions: durable at return" `Quick
      test_sessions_durable_at_return;
  ]
