(* Buffered ingestion: the twin-engine equivalence property (every query
   an engine fed by buffered writers answers must be bit-identical to one
   fed by per-row writers, down to the asof.* work counters) and the
   crash-recovery contract of the message buffer — a committed-but-
   unflushed buffer survives a crash, a loser's messages (and any
   versions a mid-transaction flush already applied) roll back, and a
   buffer crashed mid-life recovers to a state every read path agrees
   on. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module T = Imdb_core.Table
module Ts = Imdb_clock.Timestamp
module M = Imdb_obs.Metrics

(* Small pages and a tiny buffer so scripts of a few hundred ops force
   many flushes, deferred splits and buffer-page wraparounds. *)
let buffered_config =
  { E.default_config with E.page_size = 1024; ingest_buffer_rows = 4 }

(* --- twin-engine equivalence --------------------------------------------- *)

(* Only serializable writers append messages (Table.write_version); a
   snapshot-isolation writer takes the per-row descent on the same
   config.  So the twin is the same engine written through SI
   transactions — with one writer at a time, SI and serializable writes
   have the same outcomes. *)
let per_row = Db.Snapshot_isolation

(* One write step against one engine: a fresh single-write transaction,
   committed on success, aborted on the expected existence errors.
   Returns a comparable outcome so the twins can be checked step by
   step. *)
type step_outcome = Committed of Ts.t | Dup_key | No_key

let run_step ?isolation db action key v =
  let txn = Db.begin_txn ?isolation db in
  match
    (match action with
    | 0 | 1 -> Db.upsert_row db txn ~table:"t" (row key v)
    | 2 -> Db.insert_row db txn ~table:"t" (row key v)
    | 3 -> Db.update_row db txn ~table:"t" (row key v)
    | _ -> Db.delete_row db txn ~table:"t" ~key:(S.V_int key));
    Db.commit db txn
  with
  | Some ts -> Some (Committed ts)
  | None -> None
  | exception T.Duplicate_key _ ->
      Db.abort db txn;
      Some Dup_key
  | exception T.No_such_key _ ->
      Db.abort db txn;
      Some No_key

let full_state db =
  let got = Hashtbl.create 16 in
  Db.exec db (fun txn ->
      Db.scan db txn ~table:"t" (fun k v -> Hashtbl.replace got k v));
  got

let state_as_of db ts =
  let got = Hashtbl.create 16 in
  Db.as_of db ts (fun txn ->
      Db.scan_as_of db txn ~table:"t" ~ts (fun k v -> Hashtbl.replace got k v));
  got

let asof_work db =
  (M.get (Db.metrics db) M.asof_pages, M.get (Db.metrics db) M.asof_versions)

let prop_twin_engines =
  let gen =
    QCheck.Gen.(list_size (int_range 80 200) (pair (int_range 0 6) (int_range 0 11)))
  in
  QCheck.Test.make ~name:"buffered engine = unbuffered engine (results and counters)"
    ~count:15 (QCheck.make gen)
    (fun script ->
      let fresh config =
        let clock = Imdb_clock.Clock.create_logical () in
        (Db.open_memory ~config ~clock (), clock)
      in
      let db_b, clock_b = fresh buffered_config in
      let db_p, clock_p = fresh buffered_config in
      List.iter
        (fun db -> Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema)
        [ db_b; db_p ];
      let commits = ref [] in
      let step = ref 0 in
      List.iter
        (fun (action, key) ->
          incr step;
          tick clock_b;
          tick clock_p;
          if action = 5 then () (* a clock tick with no write *)
          else if action = 6 then begin
            (* mid-run read: flushes the buffered engine's buffer, then
               both must see the same row *)
            let read db =
              Db.exec db (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int key))
            in
            if read db_b <> read db_p then
              QCheck.Test.fail_reportf "step %d: mid-run read of key %d differs"
                !step key
          end
          else begin
            let v = Printf.sprintf "s%d" !step in
            let ob = run_step db_b action key v in
            let op = run_step ~isolation:per_row db_p action key v in
            (match (ob, op) with
            | Some (Committed tb), Some (Committed tp) when Ts.equal tb tp ->
                commits := tb :: !commits
            | _ when ob = op -> ()
            | _ ->
                QCheck.Test.fail_reportf
                  "step %d: outcomes diverge (action %d key %d)" !step action key)
          end)
        script;
      (* settle both engines (first read drains the buffer), then compare
         the asof.* work of the whole read phase: identical structures
         must do identical work *)
      let same_tables what a b =
        if Hashtbl.length a <> Hashtbl.length b then
          QCheck.Test.fail_reportf "%s: %d rows buffered, %d per-row" what
            (Hashtbl.length a) (Hashtbl.length b);
        Hashtbl.iter
          (fun k v ->
            if Hashtbl.find_opt b k <> Some v then
              QCheck.Test.fail_reportf "%s: key %s differs" what k)
          a
      in
      same_tables "current state" (full_state db_b) (full_state db_p);
      let base_b = asof_work db_b and base_p = asof_work db_p in
      List.iter
        (fun ts ->
          same_tables
            (Printf.sprintf "as of %s" (Ts.to_string ts))
            (state_as_of db_b ts) (state_as_of db_p ts))
        !commits;
      for key = 0 to 11 do
        let hist db =
          Db.exec db (fun txn -> Db.history_rows db txn ~table:"t" ~key:(S.V_int key))
        in
        if hist db_b <> hist db_p then
          QCheck.Test.fail_reportf "history of key %d differs" key
      done;
      (* the scripts never abort, so the twins must also match on
         physical structure: the asof work counters agree only when split
         topology is identical.  (An abort could legitimately diverge
         them — a later-aborted write splits a full page on the per-row
         path before rolling back, while its buffered message never
         reaches a data page.) *)
      (let diff (p0, v0) (p1, v1) = (p1 - p0, v1 - v0) in
       let wb = diff base_b (asof_work db_b)
       and wp = diff base_p (asof_work db_p) in
       if wb <> wp then
         QCheck.Test.fail_reportf
           "asof work differs: buffered (%d pages, %d versions) vs (%d, %d)"
           (fst wb) (snd wb) (fst wp) (snd wp));
      Db.close db_b;
      Db.close db_p;
      true)

(* --- crash recovery of the buffer ---------------------------------------- *)

(* A buffer too large to flush by itself: everything stays buffered until
   a read or crash forces the question. *)
let lazy_config = { buffered_config with E.ingest_buffer_rows = 64 }

let test_committed_buffer_survives_crash () =
  let db, clock = fresh_db ~config:lazy_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let stamps =
    List.map
      (fun i ->
        tick clock;
        commit_write db (fun txn ->
            Db.upsert_row db txn ~table:"t" (row i (Printf.sprintf "v%d" i))))
      [ 0; 1; 2; 3; 4 ]
  in
  tick clock;
  ignore
    (commit_write db (fun txn ->
         Db.upsert_row db txn ~table:"t" (row 2 "v2b")));
  (* all eleven writes are still messages: nothing has been applied *)
  Alcotest.(check bool) "writes were buffered" true
    (M.get (Db.metrics db) M.ingest_appends >= 6);
  Alcotest.(check int) "no flush yet" 0 (M.get (Db.metrics db) M.ingest_flushes);
  let db = Db.crash_and_reopen ~config:lazy_config ~clock db in
  check_row db ~table:"t" ~id:2 (Some (row 2 "v2b"));
  List.iteri
    (fun i _ ->
      if i <> 2 then check_row db ~table:"t" ~id:i (Some (row i (Printf.sprintf "v%d" i))))
    stamps;
  (* the recovered buffer must also serve time travel correctly *)
  (match stamps with
  | _ :: _ ->
      let ts = List.nth stamps 2 in
      Db.as_of db ts (fun txn ->
          Alcotest.(check bool) "as-of before the update sees v2" true
            (Db.get_row db txn ~table:"t" ~key:(S.V_int 2) = Some (row 2 "v2")))
  | [] -> ());
  Db.exec db (fun txn ->
      Alcotest.(check int) "key 2 has two versions" 2
        (List.length (Db.history_rows db txn ~table:"t" ~key:(S.V_int 2))));
  Db.close db

let test_aborted_buffer_rolls_back () =
  let db, clock = fresh_db ~config:lazy_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 "keep")));
  tick clock;
  let txn = Db.begin_txn db in
  Db.upsert_row db txn ~table:"t" (row 1 "junk");
  Db.insert_row db txn ~table:"t" (row 2 "junk2");
  Db.abort db txn;
  check_row db ~table:"t" ~id:1 (Some (row 1 "keep"));
  check_row db ~table:"t" ~id:2 None;
  Db.exec db (fun txn ->
      Alcotest.(check int) "key 1 history unchanged" 1
        (List.length (Db.history_rows db txn ~table:"t" ~key:(S.V_int 1))));
  Db.close db

(* The hard case: a transaction big enough that the buffer flushes in the
   middle of it, so some of the loser's versions are already applied to
   data pages when the crash hits.  A later committed transaction makes
   the loser's WAL records durable.  Recovery must undo both halves —
   the messages still buffered and the versions already applied (the
   Op_msg_append records' dual-guard logical undo). *)
let test_loser_with_half_flushed_buffer_rolls_back () =
  let config = { buffered_config with E.ingest_buffer_rows = 8 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 0 "base")));
  tick clock;
  let loser = Db.begin_txn db in
  for i = 0 to 19 do
    Db.upsert_row db loser ~table:"t" (row i "loser")
  done;
  Alcotest.(check bool) "loser's writes forced a mid-transaction flush" true
    (M.get (Db.metrics db) M.ingest_flushes > 0);
  (* a separate committed transaction forces the WAL (including the
     loser's appends and flush batches) to disk *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 100 "w")));
  let db = Db.crash_and_reopen ~config ~clock db in
  check_row db ~table:"t" ~id:0 (Some (row 0 "base"));
  check_row db ~table:"t" ~id:100 (Some (row 100 "w"));
  for i = 1 to 19 do
    check_row db ~table:"t" ~id:i None
  done;
  Db.exec db (fun txn ->
      Alcotest.(check int) "key 0 kept only the committed version" 1
        (List.length (Db.history_rows db txn ~table:"t" ~key:(S.V_int 0))));
  Db.close db

(* Crash with the buffer mid-life: some transactions fully flushed (their
   messages truncated by the redo-only reformat), later ones still
   buffered.  Replay rebuilds the page through the append/format/append
   sequence and the recovered tail must flush correctly afterwards. *)
let test_mixed_flushed_and_buffered_crash () =
  let config = { buffered_config with E.ingest_buffer_rows = 8 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let stamps = ref [] in
  for i = 0 to 29 do
    tick clock;
    let ts =
      commit_write db (fun txn ->
          Db.upsert_row db txn ~table:"t" (row (i mod 10) (Printf.sprintf "v%d" i)))
    in
    stamps := (i, ts) :: !stamps
  done;
  Alcotest.(check bool) "flushes happened before the crash" true
    (M.get (Db.metrics db) M.ingest_flushes > 0);
  let db = Db.crash_and_reopen ~config ~clock db in
  for k = 0 to 9 do
    check_row db ~table:"t" ~id:k (Some (row k (Printf.sprintf "v%d" (20 + k))))
  done;
  (* every commit's state is reconstructible: key i mod 10's value as of
     commit i is v_i *)
  List.iter
    (fun (i, ts) ->
      Db.as_of db ts (fun txn ->
          Alcotest.(check bool)
            (Printf.sprintf "as of commit %d" i)
            true
            (Db.get_row db txn ~table:"t" ~key:(S.V_int (i mod 10))
            = Some (row (i mod 10) (Printf.sprintf "v%d" i)))))
    !stamps;
  Db.exec db (fun txn ->
      Alcotest.(check int) "key 3 has three versions" 3
        (List.length (Db.history_rows db txn ~table:"t" ~key:(S.V_int 3))));
  Db.close db

(* A flush is one atomic WAL group: no log sync may fall strictly inside
   it.  With a pool far smaller than the table, the flush's own page
   visits evict dirty pages, and each eviction flushes the log.  A sync
   between the flush's buffer truncation and its last batch, followed by
   a crash, would lose the messages not yet applied. *)
let test_flush_is_atomic_in_the_log () =
  let config =
    { lazy_config with E.pool_capacity = 6; auto_checkpoint_every = 0 }
  in
  let mem = Imdb_wal.Wal.Device.in_memory () in
  let syncs = ref [] in
  let log_device =
    {
      mem with
      Imdb_wal.Wal.Device.sync =
        (fun () ->
          mem.Imdb_wal.Wal.Device.sync ();
          syncs := mem.Imdb_wal.Wal.Device.size () :: !syncs);
    }
  in
  let clock = Imdb_clock.Clock.create_logical () in
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for batch = 0 to 3 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           for i = 0 to 49 do
             let k = (batch * 50) + i in
             Db.upsert_row db txn ~table:"t" (row k (Printf.sprintf "v%d" k))
           done))
  done;
  check_row db ~table:"t" ~id:0 (Some (row 0 "v0"));
  (* one buffered write per 10 keys, spread over every data page, and
     few enough that the buffer page holds them all until the read *)
  tick clock;
  ignore
    (commit_write db (fun txn ->
         for k = 0 to 19 do
           Db.upsert_row db txn ~table:"t" (row (k * 10) "w")
         done));
  let m = Db.metrics db in
  let flushes = M.get m M.ingest_flushes and evictions = M.get m M.buf_evictions in
  syncs := [];
  check_row db ~table:"t" ~id:10 (Some (row 10 "w"));
  Alcotest.(check int) "the read flushed the buffer" (flushes + 1) (M.get m M.ingest_flushes);
  Alcotest.(check bool) "the flush evicted pages" true (M.get m M.buf_evictions > evictions);
  let during = !syncs in
  let wal = (Db.engine db).E.wal in
  Imdb_wal.Wal.flush wal;
  (* the last flush's records: its truncation to its last version batch *)
  let range = ref (0L, 0L) in
  Imdb_wal.Wal.iter_from wal ~from_lsn:0L (fun lsn body ->
      match body with
      | Imdb_wal.Log_record.Redo_only
          { op = Imdb_wal.Log_record.Op_format { page_type = Imdb_storage.Page.P_msg_buffer; _ }; _ }
        ->
          range := (lsn, lsn)
      | Imdb_wal.Log_record.Redo_only { op = Imdb_wal.Log_record.Op_version_batch _; _ } ->
          range := (fst !range, lsn)
      | _ -> ());
  let lo, hi = !range in
  List.iter
    (fun s ->
      let s = Int64.of_int s in
      if Int64.compare s lo > 0 && Int64.compare s hi <= 0 then
        Alcotest.failf "log synced to %Ld, inside the flush [%Ld, %Ld]" s lo hi)
    during;
  Db.close db

(* One flush that overflows the same page twice at one deferred clock
   reading.  With the clock frozen, a commit takes the successor of the
   last timestamp issued, so the transaction below commits at exactly
   the time its messages' clock reading dates a deferred split.  The
   first overflow time-splits at that time, which keeps the commit's
   versions current; a second time split would have to date the page
   later, leaving the rest of the commit's versions on a page that
   AS OF the commit never reads. *)
let test_second_overflow_keeps_commit_visible () =
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config:lazy_config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let m = Db.metrics db in
  (* 40 committed rows fill the table's pages, then one transaction's 16
     upserts past them stay buffered until a read flushes them *)
  for i = 0 to 39 do
    ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row i "a")))
  done;
  check_row db ~table:"t" ~id:0 (Some (row 0 "a"));
  let flushes = M.get m M.ingest_flushes and deferred = M.get m M.ingest_deferred_splits in
  let ts =
    commit_write db (fun txn ->
        for i = 1000 to 1015 do
          Db.upsert_row db txn ~table:"t" (row i "b")
        done)
  in
  Alcotest.(check int) "nothing flushed before the commit" flushes (M.get m M.ingest_flushes);
  check_row db ~table:"t" ~id:1000 (Some (row 1000 "b"));
  Alcotest.(check int) "one flush" (flushes + 1) (M.get m M.ingest_flushes);
  Alcotest.(check int) "it overflowed a page twice" (deferred + 2)
    (M.get m M.ingest_deferred_splits);
  Db.as_of db ts (fun txn ->
      for i = 1000 to 1015 do
        Alcotest.(check bool)
          (Printf.sprintf "key %d as of its commit" i)
          true
          (Db.get_row db txn ~table:"t" ~key:(S.V_int i) = Some (row i "b"))
      done);
  Db.close db

(* The rollback guard names the logged slot, and a truncation frees
   every slot for reuse: a transaction whose message a flush already
   applied must, when it aborts, spare the message another transaction
   appended at that slot since. *)
let test_abort_spares_reused_slot () =
  let db, clock = fresh_db ~config:lazy_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  let loser = Db.begin_txn db in
  Db.upsert_row db loser ~table:"t" (row 1 "junk");
  (* the read flushes the loser's message out of slot 0 *)
  check_row db ~table:"t" ~id:2 None;
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 2 "kept")));
  Db.abort db loser;
  let applied = M.get (Db.metrics db) M.ingest_flush_messages in
  check_row db ~table:"t" ~id:2 (Some (row 2 "kept"));
  Alcotest.(check int) "the kept message was still buffered" (applied + 1)
    (M.get (Db.metrics db) M.ingest_flush_messages);
  check_row db ~table:"t" ~id:1 None;
  Db.close db

(* A crash in the middle of a rollback leaves a durable prefix of its
   undo records and no End record, so recovery redoes that prefix and
   then runs the whole rollback again; the guards must skip what is
   already undone.  The loser's messages are half flushed and half
   buffered, with a committed message buffered after them.  The state
   must equal the one the finished rollback leaves. *)
let test_rollback_rerun_after_crash () =
  let config = { buffered_config with E.ingest_buffer_rows = 8 } in
  let run ~cut =
    let db, clock = fresh_db ~config () in
    Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
    tick clock;
    ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 0 "base")));
    tick clock;
    let loser = Db.begin_txn db in
    for i = 0 to 11 do
      Db.upsert_row db loser ~table:"t" (row i "loser")
    done;
    tick clock;
    ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 100 "w")));
    let wal = (Db.engine db).E.wal in
    let from = Imdb_wal.Wal.next_lsn wal in
    Db.abort db loser;
    Imdb_wal.Wal.flush wal;
    (* the rollback's undo records, then its End record *)
    let frames = ref [] in
    Imdb_wal.Wal.iter_from wal ~from_lsn:from (fun lsn _ -> frames := lsn :: !frames);
    let frames = List.rev !frames in
    Alcotest.(check bool) "the rollback logged undo records" true (List.length frames > 4);
    if cut then begin
      let _, log = Db.devices db in
      log.Imdb_wal.Wal.Device.truncate
        (Int64.to_int (List.nth frames (List.length frames / 2)))
    end;
    let db = Db.crash_and_reopen ~config ~clock db in
    Alcotest.(check bool)
      (Printf.sprintf "recovery rolled back (cut %b)" cut)
      cut
      (M.get (Db.metrics db) M.recovery_undo > 0);
    let rows =
      List.sort compare (List.of_seq (Hashtbl.to_seq (full_state db)))
    in
    let histories =
      Db.exec db (fun txn ->
          List.map
            (fun k -> Db.history_rows db txn ~table:"t" ~key:(S.V_int k))
            (100 :: List.init 12 Fun.id))
    in
    Db.close db;
    (rows, histories)
  in
  let finished = run ~cut:false and rerun = run ~cut:true in
  Alcotest.(check int) "key 100 and key 0 survive" 2 (List.length (fst finished));
  Alcotest.(check bool) "same rows" true (fst finished = fst rerun);
  Alcotest.(check bool) "same histories" true (snd finished = snd rerun)

(* A rollback leaves its message's slot dead until the next truncation,
   and a flush truncates only a buffer that holds messages.  Enough
   single-write transactions that abort fill the page with dead slots
   alone; the next append must still find room. *)
let test_dead_slots_do_not_wedge_the_buffer () =
  let db, clock = fresh_db ~config:lazy_config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for i = 0 to 599 do
    tick clock;
    let txn = Db.begin_txn db in
    Db.upsert_row db txn ~table:"t" (row i "junk");
    Db.abort db txn
  done;
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 "kept")));
  check_row db ~table:"t" ~id:1 (Some (row 1 "kept"));
  check_row db ~table:"t" ~id:2 None;
  Db.close db

let suite =
  [
    QCheck_alcotest.to_alcotest prop_twin_engines;
    Alcotest.test_case "committed unflushed buffer survives a crash" `Quick
      test_committed_buffer_survives_crash;
    Alcotest.test_case "aborted buffered writes roll back" `Quick
      test_aborted_buffer_rolls_back;
    Alcotest.test_case "loser with half-flushed buffer rolls back" `Quick
      test_loser_with_half_flushed_buffer_rolls_back;
    Alcotest.test_case "mixed flushed/buffered state recovers" `Quick
      test_mixed_flushed_and_buffered_crash;
    Alcotest.test_case "flush is atomic in the log" `Quick test_flush_is_atomic_in_the_log;
    Alcotest.test_case "second overflow keeps the commit visible" `Quick
      test_second_overflow_keeps_commit_visible;
    Alcotest.test_case "abort spares a message in a reused slot" `Quick
      test_abort_spares_reused_slot;
    Alcotest.test_case "rollback re-run after a crash" `Quick
      test_rollback_rerun_after_crash;
    Alcotest.test_case "dead slots do not wedge the buffer" `Quick
      test_dead_slots_do_not_wedge_the_buffer;
  ]
