(* Storage devices and the write-ahead log. *)

module Disk = Imdb_storage.Disk
module P = Imdb_storage.Page
module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module Tid = Imdb_clock.Tid
module Ts = Imdb_clock.Timestamp
module M = Imdb_obs.Metrics

let page_of_string s ~page_size =
  let b = Bytes.make page_size '\000' in
  Bytes.blit_string s 0 b 100 (String.length s);
  b

let disk_behaviour mk () =
  let d = mk () in
  Alcotest.(check bool) "page 0 missing" false (d.Disk.page_exists 0);
  (match d.Disk.read_page 0 with
  | exception Disk.Page_missing 0 -> ()
  | _ -> Alcotest.fail "expected Page_missing");
  let p = page_of_string "first" ~page_size:d.Disk.page_size in
  d.Disk.write_page 3 p;
  Alcotest.(check bool) "page 3 exists" true (d.Disk.page_exists 3);
  Alcotest.(check int) "count covers hwm" 4 (d.Disk.page_count ());
  let r = d.Disk.read_page 3 in
  Alcotest.(check bool) "roundtrip" true (Bytes.equal p r);
  (* write-then-mutate: the device stores a copy *)
  Bytes.set p 100 'X';
  let r2 = d.Disk.read_page 3 in
  Alcotest.(check bool) "copy semantics" true (Bytes.get r2 100 = 'f');
  (* overwrite *)
  d.Disk.write_page 3 (page_of_string "second" ~page_size:d.Disk.page_size);
  Alcotest.(check bool) "overwrite" true
    (Bytes.get (d.Disk.read_page 3) 100 = 's');
  d.Disk.close ()

let test_mem_disk () = disk_behaviour (fun () -> Disk.in_memory ~page_size:1024 ()) ()

let test_file_disk () =
  let path = Filename.temp_file "imdb_disk" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (disk_behaviour (fun () -> Disk.file ~path ~page_size:1024 ()))

let test_file_disk_persistence () =
  let path = Filename.temp_file "imdb_disk" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d = Disk.file ~path ~page_size:512 () in
      d.Disk.write_page 1 (page_of_string "persist" ~page_size:512);
      d.Disk.sync ();
      d.Disk.close ();
      let d2 = Disk.file ~path ~page_size:512 () in
      Alcotest.(check bool) "page survives reopen" true
        (Bytes.get (d2.Disk.read_page 1) 100 = 'p');
      d2.Disk.close ())

let test_failure_injection () =
  let plan = Disk.never_fail () in
  let d = Disk.failing ~plan (Disk.in_memory ~page_size:512 ()) in
  let p = page_of_string "ok" ~page_size:512 in
  d.Disk.write_page 0 p;
  plan.Disk.writes_until_failure <- 1;
  d.Disk.write_page 1 p;
  (match d.Disk.write_page 2 p with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "expected injected failure");
  Alcotest.(check bool) "failed write not persisted" false (d.Disk.page_exists 2);
  (* torn write: only the first half reaches the platter *)
  let plan2 = Disk.never_fail () in
  plan2.Disk.writes_until_failure <- 0;
  plan2.Disk.tear_on_failure <- true;
  let d2 = Disk.failing ~plan:plan2 (Disk.in_memory ~page_size:512 ()) in
  Bytes.set p 400 'z' (* marker in the half that must be lost *);
  (match d2.Disk.write_page 0 p with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "expected torn-write failure");
  Alcotest.(check bool) "torn page exists" true (d2.Disk.page_exists 0);
  Alcotest.(check bool) "torn page differs" false (Bytes.equal p (d2.Disk.read_page 0))

(* --- targeted failure triggers (torture-harness crash points) -------------- *)

let typed_page ty ~page_id ~page_size =
  let b = Bytes.make page_size '\000' in
  P.format b ~page_id ~page_type:ty ();
  P.seal b;
  b

(* The countdown only counts writes matching the armed target, so a crash
   can be aimed at "the Nth history-page write" without counting
   unrelated traffic. *)
let test_trigger_writes_of_type () =
  let plan = Disk.never_fail () in
  let d = Disk.failing ~plan (Disk.in_memory ~page_size:512 ()) in
  let data n = typed_page P.P_data ~page_id:n ~page_size:512 in
  let hist n = typed_page P.P_history ~page_id:n ~page_size:512 in
  Disk.arm plan ~target:(Disk.Writes_of_type [ P.P_history ]) ~after:1 ();
  d.Disk.write_page 1 (data 1);
  d.Disk.write_page 2 (data 2);
  (* untyped raw bytes never match a typed target *)
  d.Disk.write_page 3 (page_of_string "raw" ~page_size:512);
  d.Disk.write_page 4 (hist 4);
  (* first history write consumed the countdown but did not fire *)
  d.Disk.write_page 5 (data 5);
  (match d.Disk.write_page 6 (hist 6) with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "second history write should fail");
  Alcotest.(check int) "fired once" 1 plan.Disk.fired;
  (* once fired the device is dead for every write, typed or not... *)
  (match d.Disk.write_page 7 (data 7) with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "dead device must reject unrelated writes");
  (* ...until the plan is lifted *)
  Disk.lift plan;
  d.Disk.write_page 7 (data 7);
  Alcotest.(check bool) "write succeeds after lift" true (d.Disk.page_exists 7);
  Alcotest.(check int) "fired count preserved across lift" 1 plan.Disk.fired

let test_trigger_writes_to_page () =
  let plan = Disk.never_fail () in
  let d = Disk.failing ~plan (Disk.in_memory ~page_size:512 ()) in
  let p = page_of_string "x" ~page_size:512 in
  Disk.arm plan ~target:(Disk.Writes_to_page 0) ~after:0 ();
  d.Disk.write_page 1 p;
  d.Disk.write_page 2 p;
  Alcotest.(check int) "other pages never count" 0 plan.Disk.fired;
  (match d.Disk.write_page 0 p with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "meta-page write should fail");
  Alcotest.(check bool) "failed write not persisted" false (d.Disk.page_exists 0)

let test_trigger_targeted_tear () =
  let plan = Disk.never_fail () in
  let d = Disk.failing ~plan (Disk.in_memory ~page_size:512 ()) in
  let p = Bytes.make 512 '\000' in
  Bytes.set p 100 'a';
  Bytes.set p 400 'z';
  Disk.arm plan ~tear:true ~target:(Disk.Writes_to_page 5) ~after:0 ();
  d.Disk.write_page 7 p;
  (match d.Disk.write_page 5 p with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "targeted write should tear");
  let torn = d.Disk.read_page 5 in
  Alcotest.(check bool) "first half persisted" true (Bytes.get torn 100 = 'a');
  Alcotest.(check bool) "second half lost" true (Bytes.get torn 400 = '\000')

let test_trigger_predicate () =
  let plan = Disk.never_fail () in
  let d = Disk.failing ~plan (Disk.in_memory ~page_size:512 ()) in
  let p = page_of_string "x" ~page_size:512 in
  (* a raising predicate counts as "no match", never fires *)
  Disk.arm plan ~target:(Disk.Writes_matching (fun _ _ -> failwith "boom")) ~after:0 ();
  d.Disk.write_page 1 p;
  d.Disk.write_page 2 p;
  Alcotest.(check int) "raising predicate never fires" 0 plan.Disk.fired;
  Disk.arm plan ~target:(Disk.Writes_matching (fun id _ -> id mod 2 = 1)) ~after:1 ();
  d.Disk.write_page 2 p;
  d.Disk.write_page 3 p;
  d.Disk.write_page 4 p;
  (match d.Disk.write_page 5 p with
  | exception Disk.Io_failure _ -> ()
  | () -> Alcotest.fail "second odd-page write should fail")

(* --- WAL -------------------------------------------------------------------- *)

let test_wal_append_read () =
  let w = Wal.open_device (Wal.Device.in_memory ()) in
  let l1 = Wal.append w (LR.End { tid = Tid.of_int 1 }) in
  let l2 =
    Wal.append w
      (LR.Commit { tid = Tid.of_int 1; ts = Ts.make ~ttime:100L ~sn:0; wrote_versions = true })
  in
  Alcotest.(check int64) "first lsn" 0L l1;
  Alcotest.(check bool) "lsns grow" true (Int64.compare l2 l1 > 0);
  (* read from the volatile tail *)
  (match Wal.read_at w l1 with
  | LR.End { tid } -> Alcotest.(check bool) "tid" true (Tid.equal tid (Tid.of_int 1))
  | _ -> Alcotest.fail "wrong record");
  Wal.flush w;
  (* read from the durable region *)
  (match Wal.read_at w l2 with
  | LR.Commit { ts; _ } ->
      Alcotest.(check bool) "ts" true (Ts.equal ts (Ts.make ~ttime:100L ~sn:0))
  | _ -> Alcotest.fail "wrong record")

let test_wal_crash_drops_tail () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  ignore (Wal.append w (LR.End { tid = Tid.of_int 1 }));
  Wal.flush w;
  ignore (Wal.append w (LR.End { tid = Tid.of_int 2 }));
  (* crash: tail never flushed *)
  Wal.crash_volatile w;
  let w2 = Wal.open_device dev in
  let seen = ref [] in
  Wal.iter_from w2 ~from_lsn:0L (fun _ body -> seen := body :: !seen);
  Alcotest.(check int) "only flushed record survives" 1 (List.length !seen)

let test_wal_torn_tail_truncated () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  ignore (Wal.append w (LR.End { tid = Tid.of_int 1 }));
  ignore (Wal.append w (LR.End { tid = Tid.of_int 1 }));
  Wal.flush w;
  let good_size = dev.Wal.Device.size () in
  (* simulate a torn frame: append garbage that looks like a partial frame *)
  dev.Wal.Device.append (Bytes.of_string "\x40\x00\x00\x00\xde\xad");
  let torn_size = dev.Wal.Device.size () in
  let w2 = Wal.open_device dev in
  (match Wal.append w2 (LR.End { tid = Tid.of_int 2 }) with
  | _ -> Alcotest.fail "appended before the log's end was read"
  | exception Invalid_argument _ -> ());
  let seen = ref 0 in
  Wal.iter_from w2 ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "both good records intact" 2 !seen;
  Alcotest.(check int64) "the reader ended the log" (Int64.of_int good_size)
    (Wal.next_lsn w2);
  (* the torn bytes stay on the device until the first flush appends *)
  Alcotest.(check int) "reading leaves the device alone" torn_size (dev.Wal.Device.size ());
  ignore (Wal.append w2 (LR.End { tid = Tid.of_int 2 }));
  Wal.flush w2;
  let w3 = Wal.open_device dev in
  let seen = ref 0 in
  Wal.iter_from w3 ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "the flush replaced the torn tail" 3 !seen;
  Alcotest.(check int64) "no bytes past the last frame" (Wal.next_lsn w3)
    (Int64.of_int (dev.Wal.Device.size ()))

let test_wal_corrupt_middle_frame () =
  (* a bit flip in a flushed frame's payload must stop the scan there *)
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  ignore (Wal.append w (LR.End { tid = Tid.of_int 1 }));
  let l2 = ignore (Wal.append w (LR.End { tid = Tid.of_int 2 })) in
  ignore l2;
  Wal.flush w;
  (* flip a byte inside the second frame's payload *)
  let all = dev.Wal.Device.read ~pos:0 ~len:(dev.Wal.Device.size ()) in
  let mid = Bytes.length all - 2 in
  Bytes.set all mid (Char.chr (Char.code (Bytes.get all mid) lxor 0xff));
  dev.Wal.Device.truncate 0;
  dev.Wal.Device.append all;
  let w2 = Wal.open_device dev in
  let seen = ref 0 in
  Wal.iter_from w2 ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "scan stops before corrupt frame" 1 !seen

let test_wal_all_record_types_roundtrip () =
  let samples =
    [
      LR.End { tid = Tid.of_int 5 };
      LR.Update
        {
          tid = Tid.of_int 5;
          prev_lsn = 17L;
          page_id = 3;
          op = LR.Op_insert { slot = 2; body = Bytes.of_string "cell" };
        };
      LR.Update
        {
          tid = Tid.of_int 5;
          prev_lsn = 17L;
          page_id = 3;
          op =
            LR.Op_version_insert
              {
                slot = 4;
                body = Bytes.of_string "vcell";
                pred_slot = 1;
                pred_old_flags = 2;
                table_id = 10;
              };
        };
      LR.Update
        {
          tid = Tid.of_int 5;
          prev_lsn = 18L;
          page_id = 3;
          op = LR.Op_kv_insert { slot = 5; body = Bytes.of_string "kv"; table_id = 1 };
        };
      LR.Update
        {
          tid = Tid.of_int 5;
          prev_lsn = 19L;
          page_id = 8;
          op = LR.Op_msg_append { slot = 0; body = Bytes.of_string "msg"; table_id = 11 };
        };
      LR.Redo_only
        { page_id = 2; op = LR.Op_patch { slot = 0; at = 4; src = Bytes.of_string "cd" } };
      LR.Redo_only { page_id = 2; op = LR.Op_delete { slot = 6 } };
      LR.Redo_only
        { page_id = 2; op = LR.Op_replace { slot = 1; body = Bytes.of_string "new" } };
      LR.Redo_only
        {
          page_id = 4;
          op =
            LR.Op_version_batch
              {
                inserts =
                  [ (0, Bytes.of_string "v0", 3, 0); (7, Bytes.of_string "v1", 65535, 1) ];
                table_id = 11;
              };
        };
      LR.Redo_only
        { page_id = 9; op = LR.Op_format { page_type = P.P_history; table_id = 4; level = 0 } };
      LR.Redo_only { page_id = 9; op = LR.Op_image { image = Bytes.make 300 'i' } };
      LR.Redo_only
        {
          page_id = 1;
          op = LR.Op_header { at = 40; src = Bytes.make 4 '\001' };
        };
      LR.Redo_only
        {
          page_id = 1;
          op =
            LR.Op_kv_replace
              { slot = 3; old_body = Bytes.of_string "o"; new_body = Bytes.of_string "n"; table_id = 2 };
        };
      LR.Redo_only
        { page_id = 1; op = LR.Op_kv_delete { slot = 3; body = Bytes.of_string "d"; table_id = 2 } };
      LR.Commit { tid = Tid.of_int 5; ts = Ts.make ~ttime:999L ~sn:77; wrote_versions = true };
      LR.Commit { tid = Tid.of_int 6; ts = Ts.make ~ttime:1000L ~sn:0; wrote_versions = false };
      LR.End { tid = Tid.of_int 5 };
      LR.Checkpoint
        {
          att = [ (Tid.of_int 5, 10L); (Tid.of_int 6, 20L) ];
          dpt = [ (1, 5L); (2, 7L) ];
          next_tid = Tid.of_int 7;
          clock = Ts.make ~ttime:500L ~sn:2;
          redo_start = 5L;
        };
    ]
  in
  List.iter
    (fun body ->
      let b = LR.encode body in
      let body' = LR.decode b in
      if body' <> body then
        Alcotest.failf "roundtrip mismatch: %a vs %a" LR.pp body LR.pp body')
    samples

(* A log device that counts its syncs — the observable cost group commit
   and the flush fast path exist to reduce. *)
let counting_log_device () =
  let d = Wal.Device.in_memory () in
  let syncs = ref 0 in
  let dev =
    {
      d with
      Wal.Device.sync =
        (fun () ->
          incr syncs;
          d.Wal.Device.sync ());
    }
  in
  (dev, syncs)

let test_wal_flush_skips_durable_lsn () =
  let dev, syncs = counting_log_device () in
  let w = Wal.open_device dev in
  let l1 = Wal.append w (LR.End { tid = Tid.of_int 1 }) in
  Wal.flush w;
  Alcotest.(check int) "first flush syncs" 1 !syncs;
  let l2 = Wal.append w (LR.End { tid = Tid.of_int 1 }) in
  (* an already-durable lsn must return without touching the device,
     leaving the newer tail volatile *)
  Wal.flush ~lsn:l1 w;
  Alcotest.(check int) "durable lsn: no sync" 1 !syncs;
  Alcotest.(check bool) "tail still volatile" true
    (Int64.compare (Wal.flushed_lsn w) l2 <= 0);
  (* an lsn still in the tail forces exactly one *)
  Wal.flush ~lsn:l2 w;
  Alcotest.(check int) "volatile lsn syncs" 2 !syncs;
  (* an empty tail is free *)
  Wal.flush w;
  Alcotest.(check int) "empty tail: no sync" 2 !syncs

let commit_record w i =
  Wal.append_commit w ~tid:(Tid.of_int i) ~ts:(Ts.make ~ttime:(Int64.of_int i) ~sn:0) ~wrote_versions:true

(* Three commits queued before any sync form one batch: each learns its
   position as it appends, and the one sync that covers them observes
   the group-commit histogram once, with all three. *)
let test_wal_one_sync_covers_batch () =
  let dev, syncs = counting_log_device () in
  let m = M.create () in
  let w = Wal.open_device ~metrics:m dev in
  let positions = List.map (fun i -> snd (commit_record w i)) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "batch positions" [ 1; 2; 3 ] positions;
  Alcotest.(check int) "no sync before the flush" 0 !syncs;
  Wal.flush w;
  Alcotest.(check int) "one sync for the whole batch" 1 !syncs;
  let batches () =
    match M.histogram m M.h_group_commit_batch with
    | Some h -> (h.M.h_count, h.M.h_sum)
    | None -> (0, 0)
  in
  Alcotest.(check (pair int int)) "one observation of 3" (1, 3) (batches ());
  (* a sync that covers no Commit record observes nothing *)
  ignore (Wal.append w (LR.End { tid = Tid.of_int 9 }));
  Wal.flush w;
  Alcotest.(check int) "second sync" 2 !syncs;
  Alcotest.(check (pair int int)) "no commit, no observation" (1, 3) (batches ());
  (* the next commit leads a fresh batch *)
  let lsn, pos = commit_record w 4 in
  Alcotest.(check int) "next commit leads" 1 pos;
  Wal.flush ~lsn w;
  Alcotest.(check (pair int int)) "a batch of one" (2, 4) (batches ())

let test_wal_crash_drops_batch () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  ignore (commit_record w 1);
  Wal.crash_volatile w;
  Alcotest.(check int) "the batch went with the tail" 1 (snd (commit_record w 2));
  Wal.crash_volatile w;
  Wal.flush w;
  (* and the records it held are gone from the durable log *)
  let w2 = Wal.open_device dev in
  let seen = ref 0 in
  Wal.iter_from w2 ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "nothing was durable" 0 !seen

let test_wal_file_device () =
  let path = Filename.temp_file "imdb_wal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Wal.open_device (Wal.Device.file ~path) in
      ignore (Wal.append w (LR.End { tid = Tid.of_int 1 }));
      Wal.flush w;
      Wal.close w;
      let w2 = Wal.open_device (Wal.Device.file ~path) in
      let seen = ref 0 in
      Wal.iter_from w2 ~from_lsn:0L (fun _ _ -> incr seen);
      Alcotest.(check int) "record survives reopen" 1 !seen;
      Wal.close w2)

(* The log takes appends and flushes from several domains at once with no
   engine (and no session gate) around it: every returned LSN names its
   own record, and the durable stream is exactly the returned LSNs. *)
let test_wal_multi_domain_appends () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  let domains = 4 and per_domain = 500 in
  let appender d () =
    List.init per_domain (fun i ->
        let tid = Tid.of_int ((d * per_domain) + i + 1) in
        let lsn = Wal.append w (LR.End { tid }) in
        if i mod 50 = 49 then Wal.flush w;
        (lsn, tid))
  in
  let appended =
    List.init domains (fun d -> Domain.spawn (appender d))
    |> List.concat_map Domain.join
  in
  Alcotest.(check int) "every append returned" (domains * per_domain)
    (List.length appended);
  List.iter
    (fun (lsn, tid) ->
      match Wal.read_at w lsn with
      | LR.End { tid = t } when Tid.equal t tid -> ()
      | body -> Alcotest.failf "lsn %Ld: %a" lsn LR.pp body)
    appended;
  Wal.flush w;
  let w2 = Wal.open_device dev in
  let durable = ref [] in
  Wal.iter_from w2 ~from_lsn:0L (fun lsn _ -> durable := lsn :: !durable);
  Alcotest.(check (list int64)) "durable log = returned lsns"
    (List.sort Int64.compare (List.map fst appended))
    (List.sort Int64.compare !durable);
  Alcotest.(check int64) "next lsn = device size"
    (Int64.of_int (dev.Wal.Device.size ()))
    (Wal.next_lsn w2)

(* An atomic group is all-or-nothing across a crash: a flush that runs
   while the group is open — here a committer on another domain making
   its own earlier record durable — stops at the group's first record,
   and a flush that needs a record inside the group is refused. *)
let test_wal_atomic_group () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  let before = Wal.append w (LR.End { tid = Tid.of_int 1 }) in
  let inside = ref 0L in
  Wal.atomically w (fun () ->
      inside := Wal.append w (LR.End { tid = Tid.of_int 2 });
      ignore (Wal.append w (LR.End { tid = Tid.of_int 2 }));
      Domain.join (Domain.spawn (fun () -> Wal.flush ~lsn:before w));
      Alcotest.(check int64) "flush stops at the group" !inside (Wal.flushed_lsn w);
      (match Wal.flush ~lsn:!inside w with
      | () -> Alcotest.fail "flushed a record inside the open group"
      | exception Invalid_argument _ -> ());
      Alcotest.(check (option int64)) "group floor" (Some !inside) (Wal.group_floor w));
  Alcotest.(check (option int64)) "group closed" None (Wal.group_floor w);
  Wal.crash_volatile w;
  let w = Wal.open_device dev in
  let seen = ref 0 in
  Wal.iter_from w ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "no record of the group survives" 1 !seen;
  (* once closed, the group flushes as a whole *)
  Wal.atomically w (fun () ->
      ignore (Wal.append w (LR.End { tid = Tid.of_int 3 }));
      ignore (Wal.append w (LR.End { tid = Tid.of_int 3 })));
  Wal.flush w;
  Wal.crash_volatile w;
  let seen = ref 0 in
  Wal.iter_from (Wal.open_device dev) ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "whole group durable" 3 !seen

(* --- the volatile tail ------------------------------------------------------ *)

(* One record of each envelope the engine logs, for the golden tests. *)
let golden_records =
  [
    LR.Update
      {
        tid = Tid.of_int 3;
        prev_lsn = LR.nil_lsn;
        page_id = 7;
        op = LR.Op_kv_replace
            { slot = 1; old_body = Bytes.of_string "old"; new_body = Bytes.of_string "new"; table_id = 2 };
      };
    LR.Redo_only { page_id = 9; op = LR.Op_image { image = Bytes.init 200 (fun i -> Char.chr i) } };
    LR.Commit { tid = Tid.of_int 3; ts = Ts.make ~ttime:42L ~sn:5; wrote_versions = true };
    LR.Checkpoint
      {
        att = [ (Tid.of_int 4, 11L) ];
        dpt = [ (9, 25L) ];
        next_tid = Tid.of_int 5;
        clock = Ts.make ~ttime:42L ~sn:5;
        redo_start = 25L;
      };
    LR.End { tid = Tid.of_int 4 };
  ]

(* The on-device format: each record is [u32 len | u32 crc | encode r],
   frames back to back from LSN 0, whether it was framed in the tail or
   encoded alone. *)
let test_wal_golden_frames () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  let lsns = List.map (Wal.append w) golden_records in
  Wal.flush w;
  let expected = Buffer.create 512 in
  List.iter
    (fun r ->
      let payload = LR.encode r in
      let hdr = Bytes.create 8 in
      Imdb_util.Codec.set_u32 hdr 0 (Bytes.length payload);
      Imdb_util.Codec.set_u32 hdr 4 (Imdb_util.Checksum.bytes_int payload);
      Buffer.add_bytes expected hdr;
      Buffer.add_bytes expected payload)
    golden_records;
  let on_device = dev.Wal.Device.read ~pos:0 ~len:(dev.Wal.Device.size ()) in
  Alcotest.(check string) "device bytes" (Buffer.contents expected) (Bytes.to_string on_device);
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (at, acc) r -> (at + 8 + Bytes.length (LR.encode r), Int64.of_int at :: acc))
            (0, []) golden_records))
  in
  Alcotest.(check (list int64)) "lsns are frame offsets" offsets lsns

(* A log device that counts appends and syncs. *)
let counting_appends () =
  let d = Wal.Device.in_memory () in
  let appends = ref 0 and syncs = ref 0 in
  let dev =
    {
      d with
      Wal.Device.append =
        (fun b ->
          incr appends;
          d.Wal.Device.append b);
      sync =
        (fun () ->
          incr syncs;
          d.Wal.Device.sync ());
    }
  in
  (dev, appends, syncs)

(* However many frames a flush carries, the device sees one append and
   one sync: the batch is the tail's prefix, in one piece. *)
let test_wal_one_append_per_sync () =
  let dev, appends, syncs = counting_appends () in
  let w = Wal.open_device dev in
  List.iter
    (fun n ->
      for _ = 1 to n do
        List.iter (fun r -> ignore (Wal.append w r)) golden_records
      done;
      Wal.flush w)
    [ 1; 3; 40 ];
  Alcotest.(check int) "syncs" 3 !syncs;
  Alcotest.(check int) "one append per sync" !syncs !appends;
  (* the 40-round batch outgrew the tail's first buffer; all of it is
     readable after the reopen *)
  let seen = ref 0 in
  Wal.iter_from (Wal.open_device dev) ~from_lsn:0L (fun _ _ -> incr seen);
  Alcotest.(check int) "every frame durable" (44 * List.length golden_records) !seen

(* [read_at] answers every LSN, wherever its frame is: all in the tail;
   split by a flush that stopped at an open atomic group's floor, so the
   group's frames moved to the front of the tail; and after a crash drops
   the tail, for new frames whose LSNs restart at the durable end. *)
let test_wal_read_at_volatile () =
  let dev = Wal.Device.in_memory () in
  let w = Wal.open_device dev in
  let check_all what appended =
    List.iter
      (fun (lsn, r) ->
        let got = Wal.read_at w lsn in
        if got <> r then Alcotest.failf "%s: lsn %Ld reads %a, not %a" what lsn LR.pp got LR.pp r)
      appended
  in
  (* each round ends with its own marker, so a frame read at another
     round's offset reads wrong *)
  let append_all round =
    List.map
      (fun r -> (Wal.append w r, r))
      (golden_records @ [ LR.End { tid = Tid.of_int (100 + round) } ])
  in
  let first = append_all 1 in
  check_all "all volatile" first;
  let group = ref [] in
  Wal.atomically w (fun () ->
      group := append_all 2;
      let last_before = fst (List.nth first (List.length first - 1)) in
      Domain.join (Domain.spawn (fun () -> Wal.flush ~lsn:last_before w)));
  let floor = fst (List.hd !group) in
  Alcotest.(check int64) "the flush stopped at the group" floor (Wal.flushed_lsn w);
  check_all "durable prefix" first;
  check_all "group mid-tail" !group;
  let after = append_all 3 in
  check_all "behind the group" after;
  Wal.crash_volatile w;
  Alcotest.(check int64) "the end rewinds" floor (Wal.next_lsn w);
  let again = append_all 4 in
  Alcotest.(check int64) "lsns restart at the durable end" floor (fst (List.hd again));
  check_all "after the crash" (first @ again);
  Wal.flush w;
  check_all "all durable" (first @ again)

let suite =
  [
    Alcotest.test_case "mem disk" `Quick test_mem_disk;
    Alcotest.test_case "file disk" `Quick test_file_disk;
    Alcotest.test_case "file disk persistence" `Quick test_file_disk_persistence;
    Alcotest.test_case "failure injection" `Quick test_failure_injection;
    Alcotest.test_case "trigger: writes of type" `Quick test_trigger_writes_of_type;
    Alcotest.test_case "trigger: writes to page" `Quick test_trigger_writes_to_page;
    Alcotest.test_case "trigger: targeted tear" `Quick test_trigger_targeted_tear;
    Alcotest.test_case "trigger: predicate" `Quick test_trigger_predicate;
    Alcotest.test_case "wal append/read" `Quick test_wal_append_read;
    Alcotest.test_case "wal crash drops tail" `Quick test_wal_crash_drops_tail;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail_truncated;
    Alcotest.test_case "wal corrupt frame" `Quick test_wal_corrupt_middle_frame;
    Alcotest.test_case "log record roundtrips" `Quick test_wal_all_record_types_roundtrip;
    Alcotest.test_case "flush skips durable lsn" `Quick test_wal_flush_skips_durable_lsn;
    Alcotest.test_case "one sync covers a commit batch" `Quick
      test_wal_one_sync_covers_batch;
    Alcotest.test_case "crash drops the commit batch" `Quick test_wal_crash_drops_batch;
    Alcotest.test_case "wal file device" `Quick test_wal_file_device;
    Alcotest.test_case "wal appends from 4 domains" `Quick test_wal_multi_domain_appends;
    Alcotest.test_case "wal atomic group" `Quick test_wal_atomic_group;
    Alcotest.test_case "wal golden frames" `Quick test_wal_golden_frames;
    Alcotest.test_case "wal one append per sync" `Quick test_wal_one_append_per_sync;
    Alcotest.test_case "wal read_at across the tail" `Quick test_wal_read_at_volatile;
  ]
