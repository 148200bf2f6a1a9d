(* Buffer pool: caching, CLOCK (second-chance) eviction, the
   WAL-before-data rule, the pre-flush stamping hook, and checkpoint-sweep
   flushing. *)

module Disk = Imdb_storage.Disk
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module Tid = Imdb_clock.Tid
module M = Imdb_obs.Metrics

let setup ?(capacity = 4) ?(metrics = M.null) () =
  let disk = Disk.in_memory ~page_size:512 () in
  let wal = Wal.open_device (Wal.Device.in_memory ()) in
  let pool = BP.create ~capacity ~metrics ~disk ~wal () in
  (disk, wal, pool)

let new_page pool pid =
  let fr = BP.pin_new pool pid in
  P.format (BP.bytes fr) ~page_id:pid ~page_type:P.P_data ();
  fr

let test_pin_miss_hit () =
  let m = M.create () in
  let disk, _, pool = setup ~metrics:m () in
  (* seed a page on disk *)
  let b = Bytes.make 512 '\000' in
  P.format b ~page_id:1 ~page_type:P.P_data ();
  P.seal b;
  disk.Disk.write_page 1 b;
  BP.with_page pool 1 (fun _ -> ());
  Alcotest.(check int) "first access misses" 1 (M.get m M.buf_misses);
  BP.with_page pool 1 (fun _ -> ());
  Alcotest.(check int) "second access hits" 1 (M.get m M.buf_hits)

let test_corrupt_detection () =
  let disk, _, pool = setup () in
  let b = Bytes.make 512 'g' in
  disk.Disk.write_page 2 b;
  (* garbage, not sealed *)
  (match BP.pin pool 2 with
  | exception BP.Corrupt_page 2 -> ()
  | _ -> Alcotest.fail "expected Corrupt_page")

let test_eviction_and_writeback () =
  let disk, _, pool = setup ~capacity:4 () in
  (* four dirty pages fill the pool *)
  for pid = 0 to 3 do
    let fr = new_page pool pid in
    BP.mark_dirty_logged pool fr ~lsn:0L;
    BP.unpin pool fr
  done;
  Alcotest.(check int) "nothing written yet" 0 (disk.Disk.page_count ());
  (* touch pages 1..3 so page 0 is the coldest frame *)
  for pid = 1 to 3 do
    BP.with_page pool pid (fun _ -> ())
  done;
  (* a fifth page forces one eviction: the cold victim (0) is written *)
  let fr = new_page pool 4 in
  BP.unpin pool fr;
  Alcotest.(check bool) "victim written back" true (disk.Disk.page_exists 0);
  Alcotest.(check bool) "hot pages kept" false (disk.Disk.page_exists 2);
  (* page 0 reads back fine (sealed on writeback) *)
  BP.with_page pool 0 (fun fr -> Alcotest.(check int) "round trip" 0 (P.page_id (BP.bytes fr)))

let test_pinned_never_evicted () =
  let _, _, pool = setup ~capacity:4 () in
  let pins = List.init 4 (fun pid -> new_page pool pid) in
  (match BP.pin_new pool 9 with
  | exception BP.Buffer_full -> ()
  | _ -> Alcotest.fail "expected Buffer_full");
  List.iter (fun fr -> BP.unpin pool fr) pins

let test_clock_second_chance () =
  let m = M.create () in
  let disk, _, pool = setup ~capacity:4 ~metrics:m () in
  (* every page is dirty, so an eviction leaves a visible write-back *)
  let dirty pid =
    let fr = new_page pool pid in
    BP.mark_dirty_logged pool fr ~lsn:0L;
    BP.unpin pool fr
  in
  List.iter dirty [ 0; 1; 2; 3 ];
  (* first eviction: one revolution clears every reference bit, then the
     hand claims the first frame it re-visits — page 0 *)
  dirty 4;
  Alcotest.(check bool) "first victim is page 0" true (disk.Disk.page_exists 0);
  Alcotest.(check bool) "page 1 resident" true (BP.is_cached pool 1);
  (* second chance: re-reference page 1; the hand meets it before page 2
     but must spare it and take the unreferenced page 2 instead *)
  BP.with_page pool 1 (fun _ -> ());
  dirty 5;
  Alcotest.(check bool) "unreferenced page 2 evicted" true (disk.Disk.page_exists 2);
  Alcotest.(check bool) "referenced page 1 spared" true (BP.is_cached pool 1);
  Alcotest.(check bool) "page 1 never written" false (disk.Disk.page_exists 1);
  (* a pinned frame is skipped by every sweep, however many pass it *)
  let held = BP.pin pool 1 in
  List.iter dirty [ 6; 7; 8 ];
  Alcotest.(check bool) "pinned page survives all sweeps" true (BP.is_cached pool 1);
  Alcotest.(check bool) "pinned page never written" false (disk.Disk.page_exists 1);
  BP.unpin pool held;
  Alcotest.(check int) "evictions counted" 5 (M.get m M.buf_evictions);
  Alcotest.(check bool) "sweep steps recorded" true
    (M.get m M.buf_clock_sweeps >= M.get m M.buf_evictions)

let test_keydir_cache_invalidation () =
  let _, _, pool = setup () in
  let fr = new_page pool 0 in
  Alcotest.(check bool) "no directory initially" true (BP.keydir fr = None);
  BP.set_keydir fr { BP.kd_keys = [| "a"; "b" |]; kd_slots = [| 3; 1 |] };
  (match BP.keydir fr with
  | Some kd -> Alcotest.(check int) "directory attached" 2 (Array.length kd.BP.kd_keys)
  | None -> Alcotest.fail "directory lost");
  (* any dirtying — logged, unlogged (stamping), or a re-dirtying of an
     already-dirty frame — drops the cached directory *)
  BP.mark_dirty_logged pool fr ~lsn:0L;
  Alcotest.(check bool) "logged dirty invalidates" true (BP.keydir fr = None);
  BP.set_keydir fr { BP.kd_keys = [| "a" |]; kd_slots = [| 0 |] };
  BP.mark_dirty_logged pool fr ~lsn:1L;
  Alcotest.(check bool) "re-dirtying invalidates" true (BP.keydir fr = None);
  BP.set_keydir fr { BP.kd_keys = [| "a" |]; kd_slots = [| 0 |] };
  BP.mark_dirty_unlogged pool fr;
  Alcotest.(check bool) "unlogged dirty invalidates" true (BP.keydir fr = None);
  BP.unpin pool fr

let test_pre_flush_every_write () =
  (* regression for the eviction rewrite: the stamping hook must precede
     *every* page write, whether from eviction, a sweep or a force *)
  let m = M.create () in
  let disk, _, pool = setup ~capacity:4 ~metrics:m () in
  Disk.set_metrics disk m;
  let hook_runs = ref 0 in
  BP.set_pre_flush pool (fun _ -> incr hook_runs);
  let dirty pid =
    let fr = new_page pool pid in
    BP.mark_dirty_logged pool fr ~lsn:0L;
    BP.unpin pool fr
  in
  (* fill the pool, then three more pages force eviction write-backs *)
  List.iter dirty [ 0; 1; 2; 3; 4; 5; 6 ];
  (* sweep the survivors out explicitly *)
  BP.flush_all pool;
  (* and re-dirty one page so a second write of the same frame counts *)
  BP.with_page pool 6 (fun fr -> BP.mark_dirty_logged pool fr ~lsn:0L);
  BP.flush_page pool 6;
  let writes = M.get m M.disk_writes in
  Alcotest.(check bool) "writes happened" true (writes >= 8);
  Alcotest.(check int) "hook ran before every page write" writes !hook_runs

let test_wal_before_data () =
  let _, wal, pool = setup () in
  let fr = new_page pool 0 in
  let lsn = Wal.append wal (LR.Redo_only { page_id = 0; op = LR.Op_format { page_type = P.P_data; table_id = 0; level = 0 } }) in
  BP.mark_dirty_logged pool fr ~lsn;
  Alcotest.(check bool) "log volatile before flush" true
    (Int64.compare (Wal.flushed_lsn wal) lsn <= 0);
  BP.unpin pool fr;
  BP.flush_page pool 0;
  (* the flush must have pushed the log past the page lsn first *)
  Alcotest.(check bool) "wal flushed before page" true
    (Int64.compare (Wal.flushed_lsn wal) lsn > 0)

let test_pre_flush_hook () =
  let _, _, pool = setup () in
  let hook_ran = ref 0 in
  BP.set_pre_flush pool (fun page ->
      incr hook_ran;
      (* the hook may mutate the image before it is sealed *)
      P.set_next_page page 777);
  let fr = new_page pool 0 in
  BP.mark_dirty_logged pool fr ~lsn:0L;
  BP.unpin pool fr;
  BP.flush_page pool 0;
  Alcotest.(check int) "hook ran once" 1 !hook_ran;
  (* drop and reload from disk: the hook's change was persisted *)
  BP.drop_all pool;
  BP.with_page pool 0 (fun fr ->
      Alcotest.(check int) "hook mutation persisted" 777 (P.next_page (BP.bytes fr)))

let test_dirty_table_and_unlogged () =
  let _, wal, pool = setup () in
  let fr = new_page pool 0 in
  ignore (Wal.append wal (LR.End { tid = Tid.of_int 1 }));
  BP.mark_dirty_unlogged pool fr;
  let dpt = BP.dirty_page_table pool in
  (match dpt with
  | [ (0, rec_lsn) ] ->
      (* recLSN for an unlogged dirtying = current end of log *)
      Alcotest.(check int64) "recLSN is end of log" (Wal.next_lsn wal) rec_lsn
  | _ -> Alcotest.fail "expected one dirty page");
  BP.unpin pool fr

let test_flush_older_than () =
  let _, _, pool = setup ~capacity:8 () in
  let dirty_at pid lsn =
    let fr = new_page pool pid in
    BP.mark_dirty_logged pool fr ~lsn;
    BP.unpin pool fr
  in
  dirty_at 0 10L;
  dirty_at 1 20L;
  dirty_at 2 30L;
  let n = BP.flush_older_than pool ~rec_lsn_limit:20L in
  Alcotest.(check int) "two pages swept" 2 n;
  Alcotest.(check int) "one dirty page left" 1 (List.length (BP.dirty_page_table pool))

let test_invalidate () =
  let disk, _, pool = setup () in
  let fr = new_page pool 5 in
  BP.mark_dirty_logged pool fr ~lsn:0L;
  (match BP.invalidate pool 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "invalidating a pinned page must fail");
  BP.unpin pool fr;
  BP.invalidate pool 5;
  Alcotest.(check bool) "dropped without write" false (disk.Disk.page_exists 5)

(* Pages dirtied inside an open WAL group cannot be written (their
   records must stay volatile), so eviction passes over them; with no
   other victim the pool overcommits instead of failing, and returns to
   capacity once the group has closed. *)
let test_atomic_group_pages_stay_cached () =
  let disk, wal, pool = setup ~capacity:4 () in
  Wal.atomically wal (fun () ->
      for pid = 1 to 6 do
        let fr = new_page pool pid in
        let lsn = Wal.append wal (LR.End { tid = Tid.of_int pid }) in
        BP.mark_dirty_logged pool fr ~lsn;
        BP.unpin pool fr
      done;
      Alcotest.(check int) "overcommitted" 6 (List.length (BP.cached_page_ids pool));
      for pid = 1 to 6 do
        Alcotest.(check bool) "group page not written" false (disk.Disk.page_exists pid)
      done);
  let fr = new_page pool 7 in
  BP.unpin pool fr;
  Alcotest.(check int) "back to capacity" 4 (List.length (BP.cached_page_ids pool));
  Alcotest.(check bool) "evicted after the group" true (disk.Disk.page_exists 1)

let suite =
  [
    Alcotest.test_case "pin miss/hit" `Quick test_pin_miss_hit;
    Alcotest.test_case "corrupt page detection" `Quick test_corrupt_detection;
    Alcotest.test_case "eviction & writeback" `Quick test_eviction_and_writeback;
    Alcotest.test_case "pinned never evicted" `Quick test_pinned_never_evicted;
    Alcotest.test_case "CLOCK second chance & pins" `Quick test_clock_second_chance;
    Alcotest.test_case "keydir cache invalidation" `Quick test_keydir_cache_invalidation;
    Alcotest.test_case "pre-flush before every write" `Quick test_pre_flush_every_write;
    Alcotest.test_case "WAL before data" `Quick test_wal_before_data;
    Alcotest.test_case "pre-flush hook" `Quick test_pre_flush_hook;
    Alcotest.test_case "dirty table & unlogged recLSN" `Quick test_dirty_table_and_unlogged;
    Alcotest.test_case "flush_older_than sweep" `Quick test_flush_older_than;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "atomic group pages stay cached" `Quick
      test_atomic_group_pages_stay_cached;
  ]
