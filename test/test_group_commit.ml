(* Group commit at the engine level.  Every writing commit flushes the
   log through its own commit record before [Db.commit] returns, and that
   flush's return is the acknowledgment ([tx_durable]), so it is always
   set by the time a caller sees the timestamp.  Concurrent committers
   may share one sync (the WAL's leader/follower flush); they never skip
   it.  Each sync observes [txn.group_commit_batch] with the commits it
   covered, so the histogram's sum counts every commit exactly once. *)

open Helpers
module M = Imdb_obs.Metrics
module J = Imdb_obs.Json
module Wal = Imdb_wal.Wal

let gc_config = { default_config with E.auto_checkpoint_every = 0 }

(* Commit a single row write and keep the transaction handle so the test
   can watch its durability acknowledgment. *)
let commit_keep db i v =
  let txn = Db.begin_txn db in
  Db.upsert_row db txn ~table:"t" (row i v);
  ignore (Db.commit db txn);
  txn

(* Every commit the engine returned was counted in exactly one synced
   batch. *)
let check_batches_cover_commits db =
  let m = Db.metrics db in
  let batched =
    match M.histogram m M.h_group_commit_batch with Some h -> h.M.h_sum | None -> 0
  in
  Alcotest.(check int) "batch sizes sum to the commits" (M.get m M.txn_commits) batched

(* Fresh db with table "t", checkpointed so the counters under test start
   from a synced log. *)
let setup_db () =
  let db, clock = fresh_db ~config:gc_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.checkpoint db;
  check_batches_cover_commits db;
  (db, clock)

let test_window_one_syncs_every_commit () =
  let db, clock = setup_db () in
  let m = Db.metrics db in
  let f0 = M.get m M.log_flushes in
  tick clock;
  let t1 = commit_keep db 1 "x" in
  Alcotest.(check bool) "durable at commit return" true t1.E.tx_durable;
  Alcotest.(check int) "one sync for one commit" (f0 + 1) (M.get m M.log_flushes);
  check_batches_cover_commits db;
  Db.close db

(* Two sessions on two domains commit over a log whose sync sleeps 1 ms,
   so their commit flushes overlap.  Once both domains have joined, every
   commit either returned must be acknowledged and counted in one synced
   batch, each session must report a batch position, and sharing may only
   ever save syncs. *)
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
  let sessions = List.init 2 (fun _ -> Db.session db) in
  let worker sid s () =
    List.init per_session (fun i ->
        let txn = Db.Session.begin_txn s in
        Db.Session.upsert s txn ~table:"t"
          ~key:(Imdb_core.Schema.encode_key (Imdb_core.Schema.V_int ((sid * 1000) + i)))
          ~payload:(Printf.sprintf "s%d-%d" sid i);
        match Db.Session.commit s txn with
        | Some _ -> txn
        | None -> Alcotest.fail "a writing commit returned no timestamp")
  in
  let domains = List.mapi (fun sid s -> Domain.spawn (worker sid s)) sessions in
  let txns = List.concat_map Domain.join domains in
  let commits = List.length txns in
  Alcotest.(check int) "every commit returned" (2 * per_session) commits;
  Alcotest.(check bool) "every returned commit is durable" true
    (List.for_all (fun t -> t.E.tx_durable) txns);
  check_batches_cover_commits db;
  (* the SESSIONS view: every committing session rode some batch *)
  let max_batch_pos id =
    Option.bind (J.member "sessions" (Db.sessions_json db)) J.to_list
    |> Option.value ~default:[]
    |> List.find_map (fun ss ->
           if Option.bind (J.member "id" ss) J.to_int = Some id then
             Option.bind (J.member "max_batch_pos" ss) J.to_int
           else None)
  in
  List.iter
    (fun s ->
      match max_batch_pos (Db.Session.id s) with
      | Some p when p >= 1 -> ()
      | Some p -> Alcotest.failf "session %d: max_batch_pos %d" (Db.Session.id s) p
      | None -> Alcotest.failf "session %d missing from SESSIONS" (Db.Session.id s))
    sessions;
  let flushes = M.get m M.log_flushes - f0 in
  if flushes > commits then
    Alcotest.failf "%d log syncs for %d commits: sharing may only save syncs" flushes
      commits;
  Db.close db

(* A checkpoint taken while a committer is out of the gate for its sync
   must not list that committer as active.  Its commit record precedes
   the checkpoint record, so recovery starting at the checkpoint never
   sees it; once the End record is lost with the volatile tail, an ATT
   entry would roll the committed transaction back as a loser.  The log
   device's sync starts the checkpoint on a second domain and waits until
   it holds the gate, so the checkpoint always lands inside the window. *)
let test_checkpoint_during_commit_sync () =
  let base = Wal.Device.in_memory () in
  let on_sync = ref ignore in
  let log_device =
    { base with Wal.Device.sync = (fun () -> !on_sync (); base.Wal.Device.sync ()) }
  in
  let clock = Imdb_clock.Clock.create_logical () in
  let db =
    Db.open_devices ~config:gc_config ~clock
      ~disk:(Imdb_storage.Disk.in_memory ~page_size:gc_config.E.page_size ())
      ~log_device ()
  in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.checkpoint db;
  let eng = Db.engine db in
  let checkpointer = ref None in
  on_sync :=
    (fun () ->
      on_sync := ignore;
      checkpointer := Some (Domain.spawn (fun () -> Db.checkpoint db));
      while Imdb_util.Park.holder eng.E.gate = 0 do
        Domain.cpu_relax ()
      done);
  tick clock;
  let txn = commit_keep db 1 "x" in
  Option.iter Domain.join !checkpointer;
  Alcotest.(check bool) "checkpoint ran inside the commit's sync" true
    (Option.is_some !checkpointer);
  Alcotest.(check bool) "durable at commit return" true txn.E.tx_durable;
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "x"));
  Db.close db

let suite =
  [
    Alcotest.test_case "window 1 syncs every commit" `Quick
      test_window_one_syncs_every_commit;
    Alcotest.test_case "2 sessions: durable at return" `Quick
      test_sessions_durable_at_return;
    Alcotest.test_case "checkpoint during a commit's sync" `Quick
      test_checkpoint_during_commit_sync;
  ]
