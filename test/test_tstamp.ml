(* The lazy timestamping protocol: VTT reference counting, PTT
   persistence, resolution, and checkpoint-coupled garbage collection —
   the paper's Section 2.2 end to end. *)

open Helpers
module Vtt = Imdb_tstamp.Vtt
module Ptt = Imdb_tstamp.Ptt
module Tid = Imdb_clock.Tid
module Ts = Imdb_clock.Timestamp
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema

let ts ms = Ts.make ~ttime:(Int64.of_int ms) ~sn:0
let tid i = Tid.of_int i

let test_vtt_stages () =
  let v = Vtt.create () in
  (* stage I: begin *)
  Vtt.begin_txn v (tid 1);
  Alcotest.(check bool) "active" true (Vtt.resolve v (tid 1) = Some `Active);
  (* stage II: updates increment the refcount *)
  Vtt.incr_ref v (tid 1);
  Vtt.incr_ref v (tid 1);
  (* stage III: commit assigns the timestamp *)
  Vtt.commit v (tid 1) ~ts:(ts 100) ~end_of_log:50L;
  Alcotest.(check bool) "committed" true (Vtt.resolve v (tid 1) = Some (`Committed (ts 100)));
  (* stage IV: stamping drains the refcount; the last one records the LSN *)
  Vtt.note_stamped v (tid 1) ~end_of_log:60L;
  Alcotest.(check int) "not collectable while refs remain" 0
    (List.length (Vtt.gc_candidates v ~redo_scan_start:1000L));
  Vtt.note_stamped v (tid 1) ~end_of_log:70L;
  (* collectable only once the redo scan start passes the stamping *)
  Alcotest.(check int) "not yet durable" 0
    (List.length (Vtt.gc_candidates v ~redo_scan_start:70L));
  Alcotest.(check int) "durable now" 1
    (List.length (Vtt.gc_candidates v ~redo_scan_start:71L))

let test_vtt_cached_entries_never_gc () =
  let v = Vtt.create () in
  Vtt.cache_from_ptt v (tid 9) (ts 500);
  Alcotest.(check bool) "resolves" true (Vtt.resolve v (tid 9) = Some (`Committed (ts 500)));
  Alcotest.(check int) "undefined refcount blocks GC" 0
    (List.length (Vtt.gc_candidates v ~redo_scan_start:Int64.max_int))

(* A drained entry (snapshot-table or immortal alike) stays until GC:
   the stamped page may not have reached disk yet, and after a crash
   only this mapping (posted, or in a Commit record) can stamp it again.
   A transaction no version ever carried leaves at commit. *)
let test_vtt_snapshot_drop () =
  let v = Vtt.create () in
  Vtt.begin_txn v (tid 2);
  Vtt.incr_ref v (tid 2);
  Vtt.commit v (tid 2) ~ts:(ts 10) ~end_of_log:5L;
  Vtt.note_stamped v (tid 2) ~end_of_log:6L;
  Alcotest.(check bool) "drained entry still resolves" true
    (Vtt.resolve v (tid 2) = Some (`Committed (ts 10)));
  Alcotest.(check int) "posted unless GC would collect it" 1
    (List.length (Vtt.unposted v ~redo_scan_start:6L));
  Alcotest.(check int) "GC drops it once the stamping is on disk" 1
    (List.length (Vtt.gc_candidates v ~redo_scan_start:7L));
  Alcotest.(check int) "and then it is not posted" 0
    (List.length (Vtt.unposted v ~redo_scan_start:7L));
  Vtt.begin_txn v (tid 3);
  Vtt.commit v (tid 3) ~ts:(ts 11) ~end_of_log:8L;
  Alcotest.(check bool) "no version, no mapping" true (Vtt.resolve v (tid 3) = None)

let test_ptt_roundtrip () =
  let db, _clock = fresh_db () in
  let eng = Db.engine db in
  let ptt = E.ptt_exn eng in
  (* posting (checkpoint path), in an order the batch must sort *)
  Ptt.insert_batch ptt (List.init 50 (fun i -> (tid (1050 - i), ts ((50 - i) * 20))));
  Alcotest.(check bool) "lookup hit" true (Ptt.lookup ptt (tid 1025) = Some (ts 500));
  Alcotest.(check bool) "lookup miss" true (Ptt.lookup ptt (tid 999) = None);
  Alcotest.(check bool) "min tid" true (Ptt.min_tid ptt = Some (tid 1001));
  (* re-posting replaces *)
  Ptt.insert_batch ptt [ (tid 1025, ts 501) ];
  Alcotest.(check bool) "replaced" true (Ptt.lookup ptt (tid 1025) = Some (ts 501));
  Alcotest.(check int) "no duplicate" 50 (Ptt.count ptt);
  (* deletion (GC path) *)
  Alcotest.(check int) "one existed" 1 (Ptt.delete_batch ptt [ tid 1025; tid 999 ]);
  Alcotest.(check bool) "deleted" true (Ptt.lookup ptt (tid 1025) = None);
  (* a posting large enough to split leaves, across a crash *)
  Ptt.insert_batch ptt (List.init 2000 (fun i -> (tid (5000 + i), ts (5000 + i))));
  Alcotest.(check int) "tree intact" 2049 (Imdb_btree.Btree.check_invariants ptt.Ptt.tree);
  Db.checkpoint db;
  let db = Db.crash_and_reopen db in
  let ptt = E.ptt_exn (Db.engine db) in
  Alcotest.(check bool) "posted entries survive" true
    (Ptt.lookup ptt (tid 6999) = Some (ts 6999) && Ptt.lookup ptt (tid 1001) = Some (ts 20));
  Db.close db

(* End-to-end: unstamped committed versions resolve after the VTT is
   lost — first from the Commit records recovery re-reads, then, once a
   checkpoint's redo-scan start has passed those records and a second
   crash loses the VTT again, through the PTT. *)
let test_resolution_after_reopen () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for i = 1 to 10 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "x")))
  done;
  (* crash: pages flushed during reopen carry TIDs where stamping hadn't
     happened; the VTT is gone *)
  let db = Db.crash_and_reopen ~clock db in
  Db.checkpoint db;
  Alcotest.(check bool) "the checkpoint posted the recovered mappings" true
    (Imdb_tstamp.Ptt.count (E.ptt_exn (Db.engine db)) > 0);
  let db = Db.crash_and_reopen ~clock db in
  let eng = Db.engine db in
  let lookups0 = Imdb_obs.Metrics.get (Db.metrics db) Imdb_obs.Metrics.ptt_lookups in
  (* reading re-stamps through the PTT *)
  check_row db ~table:"t" ~id:5 (Some (row 5 "x"));
  Alcotest.(check bool) "PTT still holds mappings" true (Imdb_tstamp.Ptt.count (E.ptt_exn eng) > 0);
  Alcotest.(check bool) "the read asked the PTT" true
    (Imdb_obs.Metrics.get (Db.metrics db) Imdb_obs.Metrics.ptt_lookups > lookups0);
  Db.close db

let test_gc_bounds_ptt () =
  let config = { E.default_config with E.auto_checkpoint_every = 50 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* heavy update traffic on few keys: each update stamps the predecessor,
     draining refcounts; checkpoints advance the redo scan point *)
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "v")))
  done;
  for u = 1 to 600 do
    tick clock;
    let i = 1 + (u mod 5) in
    ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row i "w")))
  done;
  let eng = Db.engine db in
  let remaining = Imdb_tstamp.Ptt.count (E.ptt_exn eng) in
  Alcotest.(check bool)
    (Printf.sprintf "PTT bounded by GC (%d entries after 605 commits)" remaining)
    true (remaining < 300);
  (* correctness is untouched: all data still reads fine *)
  Db.exec db (fun txn ->
      Alcotest.(check int) "five rows" 5 (List.length (Db.scan_rows db txn ~table:"t")));
  Db.close db

let test_no_gc_without_checkpoints () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "v")))
  done;
  for u = 1 to 200 do
    tick clock;
    ignore
      (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row (1 + (u mod 5)) "w")))
  done;
  let eng = Db.engine db in
  Alcotest.(check int) "nothing posted without checkpoints" 0
    (Imdb_tstamp.Ptt.count (E.ptt_exn eng));
  Alcotest.(check int) "VTT grows without checkpoints" 205
    (List.length (Vtt.tids (E.vtt eng)));
  Db.close db

(* Eager mode: every version stamped (and logged) by commit; no PTT. *)
let test_eager_mode () =
  let config = { E.default_config with E.timestamping = E.Eager_stamping } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  let t1 = commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "a")) in
  tick clock;
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row 1 "b")));
  let eng = Db.engine db in
  Alcotest.(check int) "no PTT entries in eager mode" 0
    (Imdb_tstamp.Ptt.count (E.ptt_exn eng));
  (* as-of still works: versions were stamped eagerly *)
  Alcotest.(check bool) "as-of under eager" true
    (Db.as_of db t1 (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1))
    = Some (row 1 "a"));
  (* and survives a crash (stamping was logged) *)
  let db = Db.crash_and_reopen ~clock db in
  Alcotest.(check bool) "as-of after crash" true
    (Db.as_of db t1 (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1))
    = Some (row 1 "a"));
  check_row db ~table:"t" ~id:1 (Some (row 1 "b"));
  Db.close db

(* The stamping gate: a commit is visible to other sessions between its
   VTT switch and the sync of its commit record.  Stamping it then must
   not outrun the log — access-path stamping forces the log first, and
   flush-time stamping declines. *)
let test_stamping_gate () =
  let module LS = Imdb_tstamp.Lazy_stamper in
  let module Vp = Imdb_version.Vpage in
  let st = LS.create () in
  let flushed = ref 100L in
  let forces = ref [] in
  LS.set_flushed_lsn st (fun () -> !flushed);
  LS.set_force_log st (fun upto ->
      forces := upto :: !forces;
      flushed := upto);
  let v = LS.vtt st in
  Vtt.begin_txn v (tid 1);
  Vtt.incr_ref v (tid 1);
  (* the commit record ends at LSN 150; the log is durable through 100 *)
  Vtt.commit v (tid 1) ~ts:(ts 100) ~end_of_log:150L;
  Alcotest.(check bool) "flush-time stamping declines a volatile commit" true
    (LS.resolve_volatile_only st (tid 1) = Vp.Active);
  Alcotest.(check bool) "access-path stamping sees the commit" true
    (LS.resolve_for_stamping st (tid 1) = Vp.Committed (ts 100));
  Alcotest.(check (list int64)) "after forcing exactly the commit record" [ 150L ]
    !forces;
  Alcotest.(check bool) "access-path stamping, horizon past the commit" true
    (LS.resolve_for_stamping st (tid 1) = Vp.Committed (ts 100));
  Alcotest.(check int) "needs no further force" 1 (List.length !forces);
  Alcotest.(check bool) "flush-time stamping proceeds once durable" true
    (LS.resolve_volatile_only st (tid 1) = Vp.Committed (ts 100))

let suite =
  [
    Alcotest.test_case "VTT four stages" `Quick test_vtt_stages;
    Alcotest.test_case "VTT cached entries never GC" `Quick test_vtt_cached_entries_never_gc;
    Alcotest.test_case "VTT snapshot drop" `Quick test_vtt_snapshot_drop;
    Alcotest.test_case "PTT roundtrip" `Quick test_ptt_roundtrip;
    Alcotest.test_case "resolution after reopen" `Quick test_resolution_after_reopen;
    Alcotest.test_case "GC bounds the PTT" `Quick test_gc_bounds_ptt;
    Alcotest.test_case "no GC without checkpoints" `Quick test_no_gc_without_checkpoints;
    Alcotest.test_case "eager mode" `Quick test_eager_mode;
    Alcotest.test_case "stamping gate forces a volatile commit" `Quick test_stamping_gate;
  ]
