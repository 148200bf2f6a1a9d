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
  Vtt.commit v (tid 1) ~ts:(ts 100) ~persistent:true ~end_of_log:50L;
  Alcotest.(check bool) "committed" true (Vtt.resolve v (tid 1) = Some (`Committed (ts 100)));
  (* stage IV: stamping drains the refcount; the last one records the LSN *)
  Vtt.note_stamped v (tid 1) ~end_of_log:60L;
  Alcotest.(check (list (pair (module struct
    type t = Tid.t

    let pp = Tid.pp
    let equal = Tid.equal
  end) bool))) "not collectable while refs remain" []
    (Vtt.gc_candidates v ~redo_scan_start:1000L);
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

let test_vtt_snapshot_drop () =
  let v = Vtt.create () in
  Vtt.begin_txn v (tid 2);
  Vtt.incr_ref v (tid 2);
  Vtt.commit v (tid 2) ~ts:(ts 10) ~persistent:false ~end_of_log:5L;
  Vtt.note_stamped v (tid 2) ~end_of_log:6L;
  Vtt.drop_if_drained_snapshot v (tid 2);
  Alcotest.(check bool) "snapshot entry gone" true (Vtt.resolve v (tid 2) = None)

let test_ptt_roundtrip () =
  let db, _clock = fresh_db () in
  let eng = Db.engine db in
  let ptt = E.ptt_exn eng in
  let txn = Db.begin_txn db in
  E.with_txn eng txn (fun () ->
      for i = 1 to 50 do
        Ptt.insert ptt (tid (1000 + i)) (ts (i * 20))
      done);
  ignore (Db.commit db txn);
  Alcotest.(check bool) "lookup hit" true (Ptt.lookup ptt (tid 1025) = Some (ts 500));
  Alcotest.(check bool) "lookup miss" true (Ptt.lookup ptt (tid 999) = None);
  Alcotest.(check bool) "min tid" true (Ptt.min_tid ptt <> None);
  (* deletion (GC path) *)
  ignore (Ptt.delete ptt (tid 1025));
  Alcotest.(check bool) "deleted" true (Ptt.lookup ptt (tid 1025) = None);
  Db.close db

(* End-to-end: unstamped committed versions resolve through the PTT after
   the VTT is lost (clean reopen), and GC keeps the PTT bounded. *)
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
  let eng = Db.engine db in
  (* reading re-stamps via VTT (rebuilt at recovery) or PTT *)
  check_row db ~table:"t" ~id:5 (Some (row 5 "x"));
  Alcotest.(check bool) "PTT still holds mappings" true (Imdb_tstamp.Ptt.count (E.ptt_exn eng) > 0);
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
  Alcotest.(check int) "PTT grows without checkpoints" 205
    (Imdb_tstamp.Ptt.count (E.ptt_exn eng));
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
  let forces = ref 0 in
  LS.set_flushed_lsn st (fun () -> !flushed);
  LS.set_force_log st (fun () ->
      incr forces;
      flushed := 200L);
  let v = LS.vtt st in
  Vtt.begin_txn v (tid 1);
  Vtt.incr_ref v (tid 1);
  (* the commit record ends at LSN 150; the log is durable through 100 *)
  Vtt.commit v (tid 1) ~ts:(ts 100) ~persistent:true ~end_of_log:150L;
  Alcotest.(check bool) "flush-time stamping declines a volatile commit" true
    (LS.resolve_volatile_only st (tid 1) = Vp.Active);
  Alcotest.(check bool) "access-path stamping sees the commit" true
    (LS.resolve_for_stamping st (tid 1) = Vp.Committed (ts 100));
  Alcotest.(check int) "after forcing the log once" 1 !forces;
  Alcotest.(check bool) "access-path stamping, horizon past the commit" true
    (LS.resolve_for_stamping st (tid 1) = Vp.Committed (ts 100));
  Alcotest.(check int) "needs no further force" 1 !forces;
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
