(* Crash recovery matrix: crashes at every interesting point, repeated
   crashes, torn log tails, losers with splits, and recovery idempotence
   of the guarded logical undo. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp

let setup ?config () =
  let db, clock = fresh_db ?config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock)

let test_crash_before_any_commit () =
  let db, clock = setup () in
  let txn = Db.begin_txn db in
  Db.insert_row db txn ~table:"t" (row 1 "ghost");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 None;
  (* the table itself (committed DDL) survived *)
  Alcotest.(check int) "table exists" 1 (List.length (Db.list_tables db));
  Db.close db

let test_crash_between_commits () =
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "a")));
  tick clock;
  let doomed = Db.begin_txn db in
  Db.update_row db doomed ~table:"t" (row 1 "b");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "a"));
  Db.close db

let test_repeated_crashes () =
  let db, clock = setup () in
  let db = ref db in
  for round = 1 to 5 do
    tick clock;
    ignore
      (commit_write !db (fun txn ->
           Db.upsert_row !db txn ~table:"t" (row round (Printf.sprintf "r%d" round))));
    (* leave a loser behind each round *)
    let loser = Db.begin_txn !db in
    Db.upsert_row !db loser ~table:"t" (row 99 "loser");
    db := Db.crash_and_reopen ~clock !db
  done;
  Db.exec !db (fun txn ->
      Alcotest.(check int) "five committed rows" 5
        (List.length (Db.scan_rows !db txn ~table:"t")));
  check_row !db ~table:"t" ~id:99 None;
  Db.close !db

let test_crash_preserves_history () =
  let db, clock = setup () in
  let stamps = ref [] in
  for v = 1 to 30 do
    tick clock;
    let ts =
      commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 (Printf.sprintf "v%d" v)))
    in
    stamps := (v, ts) :: !stamps
  done;
  let db = Db.crash_and_reopen ~clock db in
  (* every historical state is still queryable *)
  List.iter
    (fun (v, ts) ->
      let got = Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "as of v%d" v)
        true
        (got = Some (row 1 (Printf.sprintf "v%d" v))))
    !stamps;
  Db.close db

let test_loser_spanning_splits () =
  (* a loser transaction whose versions moved through a time split before
     the crash must still be rolled back (logical undo re-locates them) *)
  let db, clock = setup () in
  (* commit enough updates that the data page is near-full *)
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "base")))
  done;
  (* fat payloads so the churn genuinely fills pages and time-splits
     this database (the counter is per-engine, nothing bleeds in) *)
  let fat tag u = Printf.sprintf "%s%d-%s" tag u (String.make 120 'x') in
  for u = 1 to 100 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"t" (row (1 + (u mod 5)) (fat "u" u))))
  done;
  (* the loser updates a key, then other commits force time splits *)
  let loser = Db.begin_txn db in
  Db.update_row db loser ~table:"t" (row 3 "loser-version");
  for u = 1 to 60 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"t" (row (1 + (u mod 2)) (fat "w" u))))
  done;
  Alcotest.(check bool) "splits happened while loser open" true
    (Imdb_obs.Metrics.(get (Db.metrics db) time_splits) > 0);
  let db = Db.crash_and_reopen ~clock db in
  (* key 3's current version is the last committed one, not the loser's *)
  (match Db.exec db (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 3)) with
  | Some [ _; S.V_string v ] ->
      Alcotest.(check bool) "loser version gone" true (v <> "loser-version")
  | _ -> Alcotest.fail "key 3 missing");
  Db.close db

let test_explicit_abort_then_crash () =
  (* an abort completed before the crash must not be undone twice *)
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "keep")));
  let txn = Db.begin_txn db in
  Db.update_row db txn ~table:"t" (row 1 "aborted");
  Db.abort db txn;
  tick clock;
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row 1 "after")));
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "after"));
  Db.close db

let test_checkpointed_recovery () =
  (* recovery from the latest checkpoint, not from the log start *)
  let config = { E.default_config with E.auto_checkpoint_every = 25 } in
  let db, clock = setup ~config () in
  for i = 1 to 120 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (i mod 10) (Printf.sprintf "i%d" i))))
  done;
  let db = Db.crash_and_reopen ~clock db in
  Db.exec db (fun txn ->
      Alcotest.(check int) "ten keys" 10 (List.length (Db.scan_rows db txn ~table:"t")));
  (* and the engine still accepts writes *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 42 "post")));
  check_row db ~table:"t" ~id:42 (Some (row 42 "post"));
  Db.close db

let test_conventional_table_recovery () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"c" ~mode:Db.Conventional ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"c" (row 1 "committed")));
  let loser = Db.begin_txn db in
  Db.insert_row db loser ~table:"c" (row 2 "loser");
  Db.update_row db loser ~table:"c" (row 1 "loser-update");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"c" ~id:1 (Some (row 1 "committed"));
  check_row db ~table:"c" ~id:2 None;
  Db.close db

let test_ddl_crash () =
  (* a table created but not... DDL autocommits, so after the call it is
     durable; crash right after and use it *)
  let db, clock = fresh_db () in
  Db.create_table db ~name:"u" ~mode:Db.Immortal ~schema:kv_schema;
  let db = Db.crash_and_reopen ~clock db in
  Alcotest.(check bool) "table survives" true
    (List.exists (fun ti -> ti.Imdb_core.Catalog.ti_name = "u") (Db.list_tables db));
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"u" (row 1 "ok")));
  check_row db ~table:"u" ~id:1 (Some (row 1 "ok"));
  Db.close db

(* Model-based crash property: random committed writes interleaved with
   random crash points; after each crash every committed state (current
   and as-of) matches a reference temporal model, and losers vanish. *)
let prop_crash_model =
  let gen = QCheck.Gen.(list_size (int_range 5 60) (pair (int_range 0 7) (int_range 0 9))) in
  QCheck.Test.make ~name:"crash/recovery vs temporal model" ~count:25 (QCheck.make gen)
    (fun script ->
      let db, clock = fresh_db () in
      Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
      let db = ref db in
      (* reference: key -> (ts * value option) list, newest first *)
      let committed : (int, (Ts.t * string option) list) Hashtbl.t = Hashtbl.create 8 in
      let current k =
        match Hashtbl.find_opt committed k with
        | Some ((_, v) :: _) -> v
        | _ -> None
      in
      let step = ref 0 in
      List.iter
        (fun (action, key) ->
          incr step;
          tick clock;
          match action with
          | 0 | 1 | 2 | 3 -> (
              (* committed upsert *)
              let v = Printf.sprintf "s%d" !step in
              let ts =
                commit_write !db (fun txn -> Db.upsert_row !db txn ~table:"t" (row key v))
              in
              Hashtbl.replace committed key
                ((ts, Some v) :: Option.value ~default:[] (Hashtbl.find_opt committed key)))
          | 4 ->
              (* committed delete, if present *)
              if current key <> None then begin
                let ts =
                  commit_write !db (fun txn ->
                      Db.delete_row !db txn ~table:"t" ~key:(S.V_int key))
                in
                Hashtbl.replace committed key
                  ((ts, None) :: Option.value ~default:[] (Hashtbl.find_opt committed key))
              end
          | 5 ->
              (* loser left open across the next crash; it holds its lock
                 until then, so losers write a disjoint key range *)
              let txn = Db.begin_txn !db in
              (try Db.upsert_row !db txn ~table:"t" (row (100 + key) "loser") with _ -> ())
          | 6 ->
              (* explicit abort *)
              let txn = Db.begin_txn !db in
              (try
                 Db.upsert_row !db txn ~table:"t" (row key "aborted");
                 Db.abort !db txn
               with _ -> ())
          | _ ->
              (* crash *)
              db := Db.crash_and_reopen ~clock !db)
        script;
      db := Db.crash_and_reopen ~clock !db;
      let ok = ref true in
      (* no loser rows survive: every surviving key is a committed one *)
      Db.exec !db (fun txn ->
          List.iter
            (fun r ->
              match r with
              | S.V_int k :: _ ->
                  if k >= 100 then begin
                    ok := false;
                    QCheck.Test.fail_reportf "loser key %d survived the crash" k
                  end
              | _ -> ())
            (Db.scan_rows !db txn ~table:"t"));
      (* verify current state *)
      Hashtbl.iter
        (fun key versions ->
          let expect = match versions with (_, v) :: _ -> v | [] -> None in
          let got =
            Db.exec !db (fun txn ->
                match Db.get_row !db txn ~table:"t" ~key:(S.V_int key) with
                | Some [ _; S.V_string v ] -> Some v
                | _ -> None)
          in
          if got <> expect then begin
            ok := false;
            QCheck.Test.fail_reportf "current key %d: got %s want %s" key
              (Option.value got ~default:"-")
              (Option.value expect ~default:"-")
          end;
          (* verify a historical point per key: state as of each commit *)
          List.iter
            (fun (ts, v) ->
              let got =
                Db.as_of !db ts (fun txn ->
                    match Db.get_row !db txn ~table:"t" ~key:(S.V_int key) with
                    | Some [ _; S.V_string v ] -> Some v
                    | _ -> None)
              in
              if got <> v then begin
                ok := false;
                QCheck.Test.fail_reportf "key %d as of %s: got %s want %s" key
                  (Ts.to_string ts)
                  (Option.value got ~default:"-")
                  (Option.value v ~default:"-")
              end)
            versions)
        committed;
      Db.close !db;
      !ok)

(* A database written in the version-1 log format must be refused at
   open, before analysis meets a record kind this format dropped: stamp
   version 1 into the on-disk meta page, append a version-1 Abort record
   (body tag 5) to the log, and reopen. *)
(* Version 1 logged CLR and Abort records; version 2 checkpoints never
   posted snapshot-table mappings to the PTT; versions 3-5 differ as
   [Meta] lists (5 still logged Begin records).  All are refused. *)
let test_old_format_refused () =
  List.iter
    (fun old_version ->
      let db, _clock = setup () in
      Db.close db;
      let disk, log_device = Db.devices db in
      let module C = Imdb_util.Codec in
      let payload = Bytes.create 9 in
      C.set_u8 payload 0 5;
      C.set_i64 payload 1 7L;
      let frame = Bytes.create 17 in
      C.set_u32 frame 0 9;
      C.set_u32 frame 4 (Imdb_util.Checksum.bytes_int payload);
      C.set_bytes frame 8 payload;
      log_device.Imdb_wal.Wal.Device.append frame;
      let module P = Imdb_storage.Page in
      let page = disk.Imdb_storage.Disk.read_page Imdb_core.Meta.meta_page_id in
      let version = Bytes.create 2 in
      C.set_u16 version 0 old_version;
      P.patch_cell page Imdb_core.Meta.meta_slot ~at:4 ~src:version;
      P.seal page;
      disk.Imdb_storage.Disk.write_page Imdb_core.Meta.meta_page_id page;
      match Db.open_devices ~disk ~log_device () with
      | _ -> Alcotest.failf "a version-%d database opened" old_version
      | exception Imdb_core.Meta.Bad_meta _ -> ())
    [ 1; 2; 3; 4; 5 ]

(* --- how much log recovery reads ------------------------------------------ *)

module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module Tid = Imdb_clock.Tid

(* The value of key [k] after writes 1..n, write i setting key [i mod keys]
   to "v<i>". *)
let last_write ~n ~keys k = Printf.sprintf "v%d" (n - ((n - k) mod keys))

(* An in-memory log device that counts the bytes read from it. *)
let counting_log () =
  let dev = Wal.Device.in_memory () in
  let read = ref 0 in
  ( {
      dev with
      Wal.Device.read =
        (fun ~pos ~len ->
          read := !read + len;
          dev.Wal.Device.read ~pos ~len);
    },
    read )

(* Drop every volatile structure, as [Db.crash_and_reopen] does, but leave
   the reopen to the test, which may tamper with the devices first. *)
let crash db =
  let eng = Db.engine db in
  Wal.crash_volatile eng.E.wal;
  Imdb_buffer.Buffer_pool.drop_all eng.E.pool;
  Db.devices db

let open_counted ?(config = E.default_config) () =
  let clock = Imdb_clock.Clock.create_logical () in
  let log_device, read = counting_log () in
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock, read)

(* The largest TID and commit timestamp anywhere in the durable log. *)
let log_maxima db =
  let max_tid = ref Tid.invalid and max_ts = ref Ts.zero in
  let tid t = if Tid.compare t !max_tid > 0 then max_tid := t in
  Wal.iter_from (Db.engine db).E.wal ~from_lsn:0L (fun _ body ->
      match body with
      | LR.Update { tid = t; _ } | LR.End { tid = t } -> tid t
      | LR.Commit { tid = t; ts; _ } ->
          tid t;
          if Ts.compare ts !max_ts > 0 then max_ts := ts
      | LR.Redo_only _ | LR.Checkpoint _ -> ());
  (!max_tid, !max_ts)

(* --- what a transaction logs -------------------------------------------------- *)

(* [tid]'s records from [from] on, with their LSNs. *)
let records_of db ~from tid =
  let acc = ref [] in
  Wal.iter_from (Db.engine db).E.wal ~from_lsn:from (fun lsn body ->
      match body with
      | (LR.Update { tid = t; _ } | LR.Commit { tid = t; _ } | LR.End { tid = t })
        when Tid.equal t tid ->
          acc := (lsn, body) :: !acc
      | _ -> ());
  List.rev !acc

let kind_of = function
  | LR.Update _ -> "update"
  | LR.Commit _ -> "commit"
  | LR.End _ -> "end"
  | LR.Redo_only _ -> "redo-only"
  | LR.Checkpoint _ -> "checkpoint"

let check_chain_starts_at_nil what records =
  match records with
  | (_, LR.Update { prev_lsn; _ }) :: _ ->
      Alcotest.(check int64) (what ^ ": the first update has no predecessor") LR.nil_lsn prev_lsn
  | _ -> Alcotest.failf "%s: the transaction's log does not start with an update" what

(* A committed transaction logs its updates and its Commit record,
   nothing else: no Begin and no End.  The Commit alone keeps it out of
   recovery's losers. *)
let test_commit_logs_update_and_commit () =
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "a")));
  let wal = (Db.engine db).E.wal in
  let from = Wal.next_lsn wal in
  tick clock;
  let txn = Db.begin_txn db in
  Db.update_row db txn ~table:"t" (row 1 "b");
  ignore (Db.commit db txn);
  Alcotest.(check int64) "the commit left nothing to flush" (Wal.next_lsn wal)
    (Wal.flushed_lsn wal);
  let records = records_of db ~from txn.E.tx_tid in
  Alcotest.(check (list string)) "records" [ "update"; "commit" ]
    (List.map (fun (_, r) -> kind_of r) records);
  check_chain_starts_at_nil "committed" records;
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "b"));
  Alcotest.(check int) "nothing undone" 0
    Imdb_obs.Metrics.(get (Db.metrics db) recovery_undo);
  Db.close db

(* An uncommitted writer's durable chain starts at [nil_lsn]; its first
   update alone puts it in recovery's ATT, and it is rolled back. *)
let test_loser_chain_from_nil () =
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "keep")));
  let wal = (Db.engine db).E.wal in
  let from = Wal.next_lsn wal in
  tick clock;
  let loser = Db.begin_txn db in
  Db.update_row db loser ~table:"t" (row 1 "loser");
  Db.insert_row db loser ~table:"t" (row 2 "ghost");
  Wal.flush wal;
  let records = records_of db ~from loser.E.tx_tid in
  Alcotest.(check bool) "only updates" true
    (records <> [] && List.for_all (fun (_, r) -> kind_of r = "update") records);
  check_chain_starts_at_nil "loser" records;
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "keep"));
  check_row db ~table:"t" ~id:2 None;
  Alcotest.(check bool) "the loser was undone" true
    Imdb_obs.Metrics.(get (Db.metrics db) recovery_undo > 0);
  Db.close db

(* Crash right after the checkpoint that closes the [intervals]-th
   interval and reopen under a fresh clock.  Recovery reads the
   checkpoint record and then every frame from the redo start to the end
   of log once, so the log bytes it reads must not grow with the
   intervals before that checkpoint, and the counters it restores must
   still clear every TID and timestamp in the log: no Commit follows the
   checkpoint, so only its record carries them into the pass.  The
   interval is long enough (200 commits) that where it ends in the cycles
   of ingest flushes and time splits barely moves the redo range. *)
let test_recovery_reads_one_interval () =
  let every = 200 in
  let run intervals =
    let config = { E.default_config with E.auto_checkpoint_every = every } in
    let db, clock, read = open_counted ~config () in
    (* the table's DDL was the first interval's first commit *)
    let n = (intervals * every) - 1 in
    for i = 1 to n do
      tick clock;
      ignore
        (commit_write db (fun txn ->
             Db.upsert_row db txn ~table:"t" (row (i mod 60) (Printf.sprintf "v%d" i))))
    done;
    let disk, log_device = Db.devices db in
    let ckpt =
      (Option.get (Imdb_core.Meta.read_from_disk disk)).Imdb_core.Meta.last_checkpoint_lsn
    in
    let max_tid, max_ts = log_maxima db in
    Wal.iter_from (Db.engine db).E.wal ~from_lsn:ckpt (fun _ body ->
        match body with
        | LR.Commit _ -> Alcotest.fail "a commit follows the last checkpoint"
        | _ -> ());
    let checkpoint = Wal.read_at (Db.engine db).E.wal ckpt in
    let redo_start =
      match checkpoint with
      | LR.Checkpoint { redo_start; _ } -> redo_start
      | _ -> Alcotest.fail "meta page names no checkpoint record"
    in
    let checkpoint_frame = 8 + Bytes.length (LR.encode checkpoint) in
    let log_bytes = log_device.Wal.Device.size () in
    read := 0;
    let db = Db.crash_and_reopen ~clock:(Imdb_clock.Clock.create_logical ()) db in
    let bytes_read = !read in
    let one_pass = log_bytes - Int64.to_int redo_start + checkpoint_frame in
    Alcotest.(check bool)
      (Printf.sprintf "%d intervals: read %d B <= one pass from the redo start, %d B"
         intervals bytes_read one_pass)
      true (bytes_read <= one_pass);
    let txn = Db.begin_txn db in
    Db.upsert_row db txn ~table:"t" (row 1 "after");
    let ts = Option.get (Db.commit db txn) in
    Alcotest.(check bool)
      (Printf.sprintf "%d intervals: new TID above every logged TID" intervals)
      true
      (Tid.compare txn.E.tx_tid max_tid > 0);
    Alcotest.(check bool)
      (Printf.sprintf "%d intervals: new timestamp above every logged one" intervals)
      true
      (Ts.compare ts max_ts > 0);
    check_row db ~table:"t" ~id:2 (Some (row 2 (last_write ~n ~keys:60 2)));
    Db.close db;
    (bytes_read, log_bytes)
  in
  let read2, _ = run 2 in
  let read20, log20 = run 20 in
  Alcotest.(check bool)
    (Printf.sprintf "20 intervals read %d B <= 1.25 x %d B at 2" read20 read2)
    true
    (float read20 <= 1.25 *. float read2);
  Alcotest.(check bool)
    (Printf.sprintf "20 intervals read %d B < a fifth of the %d B log" read20 log20)
    true
    (read20 * 5 < log20)

(* A torn meta page names no checkpoint: recovery's one pass starts at
   LSN 0 and reads the whole log once, not twice, and every acknowledged
   commit comes back. *)
let test_torn_meta_falls_back () =
  let config = { E.default_config with E.auto_checkpoint_every = 25 } in
  let db, clock, read = open_counted ~config () in
  for i = 1 to 100 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (i mod 30) (Printf.sprintf "v%d" i))))
  done;
  let disk, log_device = crash db in
  let torn = Bytes.make disk.Imdb_storage.Disk.page_size '\xa5' in
  disk.Imdb_storage.Disk.write_page Imdb_core.Meta.meta_page_id torn;
  Alcotest.(check bool) "meta page unreadable" true
    (Imdb_core.Meta.read_from_disk disk = None);
  let log_bytes = log_device.Wal.Device.size () in
  read := 0;
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Alcotest.(check bool)
    (Printf.sprintf "read %d B, between once and twice the %d B log" !read log_bytes)
    true
    (log_bytes <= !read && !read < 2 * log_bytes);
  for k = 0 to 29 do
    check_row db ~table:"t" ~id:k (Some (row k (last_write ~n:100 ~keys:30 k)))
  done;
  Db.close db

(* The frames of the durable log, in order, with their LSNs. *)
let frames log_device =
  let out = ref [] in
  Wal.iter_from (Wal.open_device log_device) ~from_lsn:0L (fun lsn body ->
      out := (lsn, body) :: !out);
  List.rev !out

(* Flip the first payload byte of the frame at [lsn]. *)
let flip log_device lsn =
  let pos = Int64.to_int lsn + 8 in
  let all = log_device.Wal.Device.read ~pos:0 ~len:(log_device.Wal.Device.size ()) in
  Bytes.set all pos (Char.chr (Char.code (Bytes.get all pos) lxor 0xff));
  log_device.Wal.Device.truncate 0;
  log_device.Wal.Device.append all

(* Two checkpoints (the second leaves pages dirtied between them in its
   dirty-page table, so redo starts before it), then a few commits. *)
let checkpointed_crash () =
  let db, clock, _ = open_counted () in
  let write i =
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (i mod 20) (Printf.sprintf "v%d" i))))
  in
  for i = 1 to 40 do
    write i
  done;
  Db.checkpoint db;
  for i = 41 to 60 do
    write i
  done;
  Db.checkpoint db;
  for i = 61 to 65 do
    write i
  done;
  let disk, log_device = crash db in
  let meta = Option.get (Imdb_core.Meta.read_from_disk disk) in
  let ckpt = meta.Imdb_core.Meta.last_checkpoint_lsn in
  let redo_start =
    match List.assoc ckpt (frames log_device) with
    | LR.Checkpoint { redo_start; _ } -> redo_start
    | _ -> Alcotest.fail "meta page names no checkpoint record"
  in
  Alcotest.(check bool) "redo starts before the checkpoint" true
    (Int64.compare redo_start ckpt < 0);
  (disk, log_device, clock, ckpt, redo_start)

(* Below the checkpoint a frame that fails its CRC is corruption, raised
   with its LSN when recovery's pass reads it, never decoded and never
   taken for a torn tail. *)
let test_corrupt_frame_below_checkpoint () =
  let disk, log_device, clock, ckpt, redo_start = checkpointed_crash () in
  let victim, _ =
    List.find
      (fun (lsn, _) -> Int64.compare lsn redo_start >= 0 && Int64.compare lsn ckpt < 0)
      (frames log_device)
  in
  flip log_device victim;
  match Db.open_devices ~clock ~disk ~log_device () with
  | _ -> Alcotest.fail "a corrupt frame below the checkpoint was not detected"
  | exception Wal.Corrupt_frame lsn -> Alcotest.(check int64) "its LSN" victim lsn

(* Point the on-disk meta page at [lsn]: the checkpoint LSN is the last
   field of its cell. *)
let set_meta_checkpoint disk lsn =
  let module P = Imdb_storage.Page in
  let page = disk.Imdb_storage.Disk.read_page Imdb_core.Meta.meta_page_id in
  let at = Bytes.length (P.read_cell page Imdb_core.Meta.meta_slot) - 8 in
  let src = Bytes.create 8 in
  Imdb_util.Codec.set_i64 src 0 lsn;
  P.patch_cell page Imdb_core.Meta.meta_slot ~at ~src;
  P.seal page;
  disk.Imdb_storage.Disk.write_page Imdb_core.Meta.meta_page_id page

(* A meta page naming an LSN whose frame is no checkpoint — the
   checkpoint frame fails its CRC, or the meta page names a Commit frame
   — is refused: recovery will not guess the TID counter and the clock
   from the tail.  The refused open leaves the log byte for byte as it
   found it, so the acknowledged commits after the checkpoint are still
   on the device. *)
let test_corrupt_checkpoint_frame () =
  let disk, log_device, clock, ckpt, _ = checkpointed_crash () in
  let contents () = log_device.Wal.Device.read ~pos:0 ~len:(log_device.Wal.Device.size ()) in
  let refused lsn =
    let before = contents () in
    (match Db.open_devices ~clock ~disk ~log_device () with
    | _ -> Alcotest.fail "recovered without the checkpoint the meta page names"
    | exception Failure msg ->
        Alcotest.(check string) "the refusal names the LSN"
          (Printf.sprintf "Recovery: the meta page names LSN %Ld, which holds no checkpoint"
             lsn)
          msg);
    Alcotest.(check int) "log size unchanged" (Bytes.length before)
      (log_device.Wal.Device.size ());
    Alcotest.(check bool) "log bytes unchanged" true (Bytes.equal before (contents ()))
  in
  let last_commit, _ =
    List.find
      (fun (_, body) -> match body with LR.Commit _ -> true | _ -> false)
      (List.rev (frames log_device))
  in
  flip log_device ckpt;
  refused ckpt;
  flip log_device ckpt;
  set_meta_checkpoint disk last_commit;
  refused last_commit

(* After the checkpoint recovery's pass ends the log at the first frame
   that fails its CRC: the last commit there is a torn tail. *)
let test_corrupt_frame_after_checkpoint () =
  let disk, log_device, clock, ckpt, _ = checkpointed_crash () in
  let last_commit, _ =
    List.find
      (fun (_, body) -> match body with LR.Commit _ -> true | _ -> false)
      (List.rev (frames log_device))
  in
  Alcotest.(check bool) "after the checkpoint" true (Int64.compare last_commit ckpt > 0);
  flip log_device last_commit;
  let db = Db.open_devices ~clock ~disk ~log_device () in
  check_row db ~table:"t" ~id:5 (Some (row 5 "v45"));
  check_row db ~table:"t" ~id:4 (Some (row 4 "v64"));
  Db.close db

(* A crash that tears the first log append of a database being created
   leaves no meta page and no whole frame: the open creates the database
   afresh, and its first flush cuts the torn bytes off the log. *)
let test_torn_first_append () =
  let disk = Imdb_storage.Disk.in_memory ~page_size:E.default_config.E.page_size () in
  let log_device = Wal.Device.in_memory () in
  log_device.Wal.Device.append (Bytes.of_string "\x40\x00\x00\x00\xde\xad");
  let db = Db.open_devices ~disk ~log_device () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 "a")));
  let db = Db.crash_and_reopen db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "a"));
  Db.close db

(* --- what recovery keeps of the timestamp mappings ---------------------- *)

module LS = Imdb_tstamp.Lazy_stamper
module Vtt = Imdb_tstamp.Vtt
module M = Imdb_obs.Metrics

(* Recovery seeds the VTT with the version writers' commits since the
   redo start.  Its checkpoint posts those below its own redo-scan start;
   the rest wait in the VTT, unposted with undefined refcount, until the
   next checkpoint's start passes them, which posts and forgets them:
   after that the VTT holds the new commits and whatever the PTT was
   asked for, never the pre-restart history. *)
let test_vtt_bounded_after_restart () =
  let db, clock = setup () in
  let pre = ref [] in
  for i = 1 to 60 do
    tick clock;
    let txn = Db.begin_txn db in
    pre := txn.E.tx_tid :: !pre;
    Db.upsert_row db txn ~table:"t" (row (i mod 20) (Printf.sprintf "v%d" i));
    ignore (Db.commit db txn)
  done;
  let db = Db.crash_and_reopen ~clock db in
  let eng = Db.engine db in
  let vtt = E.vtt eng in
  let held () = List.filter (fun tid -> List.exists (Tid.equal tid) !pre) (Vtt.tids vtt) in
  let recovery_start =
    match Wal.read_at eng.E.wal eng.E.meta.Imdb_core.Meta.last_checkpoint_lsn with
    | LR.Checkpoint { redo_start; _ } -> redo_start
    | _ -> Alcotest.fail "meta page names no checkpoint record"
  in
  let commit_lsn = Tid.Table.create 64 in
  Wal.iter_from eng.E.wal ~from_lsn:0L (fun lsn body ->
      match body with LR.Commit { tid; _ } -> Tid.Table.replace commit_lsn tid lsn | _ -> ());
  let seeded = held () in
  List.iter
    (fun tid ->
      match Vtt.find vtt tid with
      | Some e ->
          Alcotest.(check bool)
            (Tid.to_string tid ^ ": seeded, unposted, refcount undefined")
            true
            ((not e.Vtt.posted) && e.Vtt.refcount < 0);
          Alcotest.(check bool)
            (Tid.to_string tid ^ ": committed at or after the recovery checkpoint's start")
            true
            (Int64.compare (Tid.Table.find commit_lsn tid) recovery_start >= 0)
      | None -> ())
    seeded;
  List.iter
    (fun tid ->
      if Int64.compare (Tid.Table.find commit_lsn tid) recovery_start >= 0 then
        Alcotest.(check bool)
          (Tid.to_string tid ^ ": a commit the log still answers for is held")
          true
          (List.exists (Tid.equal tid) seeded))
    !pre;
  let m = Db.metrics db in
  let lookups0 = M.get m M.ptt_lookups in
  let k = 10 in
  for i = 1 to k do
    tick clock;
    ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row i "after")))
  done;
  let looked_up = M.get m M.ptt_lookups - lookups0 in
  let cached tid =
    match Vtt.find vtt tid with Some e -> e.Vtt.refcount < 0 | None -> false
  in
  let unreferenced = List.length seeded + looked_up in
  Alcotest.(check bool) "pre-restart TIDs held only as seeded or looked-up entries" true
    (List.length (held ()) <= unreferenced && List.for_all cached (held ()));
  Alcotest.(check bool)
    (Printf.sprintf "VTT holds %d <= K + %d seeded or looked up" (List.length (Vtt.tids vtt))
       unreferenced)
    true
    (List.length (Vtt.tids vtt) <= k + unreferenced);
  Db.checkpoint db;
  Alcotest.(check int) "a checkpoint forgets the seeded and looked-up ones" 0
    (List.length (held ()));
  Alcotest.(check bool) "then at most the K unstamped commits" true
    (List.length (Vtt.tids vtt) <= k);
  for i = 0 to 19 do
    check_row db ~table:"t" ~id:i
      (Some
         (row i
            (if i >= 1 && i <= k then "after"
             else Printf.sprintf "v%d" (if i = 0 then 60 else 40 + i))))
  done;
  Db.close db

(* Every TID an unstamped version carries on a data page, as recovery
   left the page (read through the pool). *)
let unstamped_tids db =
  let module BP = Imdb_buffer.Buffer_pool in
  let module P = Imdb_storage.Page in
  let eng = Db.engine db in
  let out = ref [] in
  for pid = 1 to eng.E.meta.Imdb_core.Meta.hwm - 1 do
    if eng.E.disk.Imdb_storage.Disk.page_exists pid || BP.is_cached eng.E.pool pid then
      BP.with_page eng.E.pool pid (fun fr ->
          let page = BP.bytes fr in
          if P.page_type page = P.P_data then
            P.iter_live page (fun slot ->
                match Imdb_storage.Record.in_page_ttime page slot with
                | Tid.Unstamped tid ->
                    if not (List.exists (Tid.equal tid) !out) then out := tid :: !out
                | Tid.Stamped _ -> ()))
  done;
  !out

(* Recovery seeds the VTT, and its checkpoint posts to the PTT, only the
   Commit records of transactions that wrote versions: conventional-only
   and DDL commits leave no TID on any page, so a PTT entry for one
   would never be collected.  The versions of an immortal table, and of
   a table ALTERed to snapshot versioning after the checkpoint, still
   resolve every TID after the crash. *)
let test_recovery_seeds_version_writers () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema:kv_schema;
  Db.create_table db ~name:"conv" ~mode:Db.Conventional ~schema:kv_schema;
  Db.create_table db ~name:"alt" ~mode:Db.Conventional ~schema:kv_schema;
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"alt" (row i "a")))
  done;
  Db.checkpoint db;
  let others = ref [] in
  for i = 1 to 20 do
    tick clock;
    let txn = Db.begin_txn db in
    others := txn.E.tx_tid :: !others;
    Db.upsert_row db txn ~table:"conv" (row (i mod 7) (Printf.sprintf "c%d" i));
    ignore (Db.commit db txn);
    if i mod 5 = 0 then begin
      tick clock;
      others := (Db.engine db).E.next_tid :: !others;
      Db.create_table db ~name:(Printf.sprintf "ddl%d" i) ~mode:Db.Immortal ~schema:kv_schema
    end;
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"imm" (row (i mod 7) (Printf.sprintf "v%d" i))))
  done;
  tick clock;
  Alcotest.(check int) "ALTER migrated the rows" 5 (Db.enable_snapshot db ~table:"alt");
  tick clock;
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"alt" (row 1 "b")));
  let committed = ref [] in
  Wal.iter_from (Db.engine db).E.wal ~from_lsn:0L (fun _ body ->
      match body with LR.Commit { tid; _ } -> committed := tid :: !committed | _ -> ());
  List.iter
    (fun tid ->
      Alcotest.(check bool) (Tid.to_string tid ^ " committed") true
        (List.exists (Tid.equal tid) !committed))
    !others;
  let db = Db.crash_and_reopen ~clock db in
  let eng = Db.engine db in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Tid.to_string tid ^ ": no PTT entry")
        true
        (Imdb_tstamp.Ptt.lookup (E.ptt_exn eng) tid = None);
      Alcotest.(check bool) (Tid.to_string tid ^ ": no VTT entry") true
        (Vtt.find (E.vtt eng) tid = None))
    !others;
  let on_pages = unstamped_tids db in
  Alcotest.(check bool) "redo brought unstamped versions back" true (on_pages <> []);
  List.iter
    (fun tid ->
      match LS.resolve_for_stamping eng.E.stamper tid with
      | Imdb_version.Vpage.Committed _ -> ()
      | Imdb_version.Vpage.Active | Imdb_version.Vpage.Unknown ->
          Alcotest.failf "TID %s on a page does not resolve" (Tid.to_string tid))
    on_pages;
  let unknown0 = LS.unknown_tids eng.E.stamper in
  Db.exec db (fun txn ->
      for k = 0 to 6 do
        let versions = Db.history_rows db txn ~table:"imm" ~key:(S.V_int k) in
        Alcotest.(check int)
          (Printf.sprintf "imm/%d keeps every version" k)
          (List.length (List.filter (fun i -> i mod 7 = k) (List.init 20 succ)))
          (List.length versions)
      done);
  check_row db ~table:"alt" ~id:1 (Some (row 1 "b"));
  check_row db ~table:"alt" ~id:2 (Some (row 2 "a"));
  Alcotest.(check int) "no read met a TID without a mapping" unknown0
    (LS.unknown_tids eng.E.stamper);
  Db.close db

(* The redo start a checkpoint record names, and the least of its LSN
   and the recLSNs of its recorded dirty-page table. *)
let checkpoint_starts db =
  let eng = Db.engine db in
  let ckpt = eng.E.meta.Imdb_core.Meta.last_checkpoint_lsn in
  match Wal.read_at eng.E.wal ckpt with
  | LR.Checkpoint { redo_start; dpt; _ } ->
      (redo_start, List.fold_left (fun acc (_, l) -> min acc l) ckpt dpt)
  | _ -> Alcotest.fail "meta page names no checkpoint record"

(* A checkpoint's posting may evict the page that held the eldest recLSN
   when the redo-scan start was taken, so the dirty-page table it then
   records starts later.  Recovery must still seed the VTT from that
   redo-scan start, the horizon below which the checkpoint posted: the
   Commit records between the two are in neither the PTT nor the part of
   the log a pass from the recorded table's minimum reads.  Multi-row
   transactions over ~100-byte rows on 1 KiB pages and a 6-frame pool
   make the posting evict; after every checkpoint where it evicted the
   eldest dirty page, crash, and every unstamped TID must resolve and
   every row read back. *)
let test_posting_horizon () =
  let config = { E.default_config with E.page_size = 1024; pool_capacity = 6 } in
  let rng = Imdb_util.Rng.create 26 in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema:kv_schema;
  let model = Hashtbl.create 64 in
  let db = ref db and n = ref 0 and crashes = ref 0 in
  let check () =
    let eng = Db.engine !db in
    List.iter
      (fun tid ->
        match LS.resolve_for_stamping eng.E.stamper tid with
        | Imdb_version.Vpage.Committed _ -> ()
        | Imdb_version.Vpage.Active | Imdb_version.Vpage.Unknown ->
            Alcotest.failf "crash %d: TID %s on a page does not resolve" !crashes
              (Tid.to_string tid))
      (unstamped_tids !db);
    Hashtbl.iter (fun k v -> check_row !db ~table:"imm" ~id:k (Some (row k v))) model
  in
  for _ = 1 to 60 do
    for _ = 1 to Imdb_util.Rng.int_in rng 3 20 do
      tick clock;
      incr n;
      ignore
        (commit_write !db (fun txn ->
             for _ = 1 to Imdb_util.Rng.int_in rng 1 4 do
               let k = Imdb_util.Rng.int rng 60 in
               let v = Printf.sprintf "v%d-%s" !n (String.make 90 'x') in
               Db.upsert_row !db txn ~table:"imm" (row k v);
               Hashtbl.replace model k v
             done))
    done;
    Db.checkpoint !db;
    let redo_start, recorded = checkpoint_starts !db in
    if Int64.compare redo_start recorded < 0 then begin
      incr crashes;
      db := Db.crash_and_reopen ~clock !db;
      check ()
    end
  done;
  Alcotest.(check bool) "some posting evicted the eldest dirty page" true (!crashes > 0);
  Db.close !db

type rop =
  | Write of (int * int) list (* (table, key): 0 = snapshot, 1 = immortal *)
  | Read of int * int
  | Checkpoint
  | Crash

let pp_rop = function
  | Write ws ->
      "W" ^ String.concat "," (List.map (fun (t, k) -> Printf.sprintf "%d:%d" t k) ws)
  | Read (t, k) -> Printf.sprintf "R%d:%d" t k
  | Checkpoint -> "C"
  | Crash -> "X"

(* A snapshot-only transaction whose version is stamped — its refcount
   drains — while the stamped page is still dirty, then a checkpoint and
   a crash.  Two checkpoints first flush every page, so the write dirties
   a clean page and the last checkpoint's sweep leaves it dirty: recovery
   starts past the Commit record and redoes the page from the log, TID
   and all, so the checkpoint must have posted the mapping. *)
let drained_snapshot_prefix =
  [ Checkpoint; Checkpoint; Write [ (0, 0) ]; Read (0, 0); Checkpoint; Crash ]

let rop_gen =
  QCheck.Gen.(
    let key = pair (int_bound 1) (int_bound 11) in
    frequency
      [
        (6, map (fun ws -> Write ws) (list_size (int_range 1 3) key));
        (3, map (fun (t, k) -> Read (t, k)) key);
        (1, return Checkpoint);
        (1, return Crash);
      ])

(* After every crash, every TID still unstamped on a page resolves to
   its commit, and every row reads back as committed. *)
let prop_unstamped_tids_resolve =
  QCheck.Test.make ~name:"every unstamped TID resolves after a crash" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_rop ops))
       QCheck.Gen.(list_size (int_range 10 60) rop_gen))
    (fun ops ->
      let config = { E.default_config with E.page_size = 1024; pool_capacity = 8 } in
      let db, clock = fresh_db ~config () in
      let tables = [| "snap"; "imm" |] in
      Db.create_table db ~name:"snap" ~mode:Db.Snapshot_table ~schema:kv_schema;
      Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema:kv_schema;
      let model = Hashtbl.create 32 in
      let db = ref db and n = ref 0 in
      let check () =
        let eng = Db.engine !db in
        let unknown0 = LS.unknown_tids eng.E.stamper in
        List.iter
          (fun tid ->
            match LS.resolve_for_stamping eng.E.stamper tid with
            | Imdb_version.Vpage.Committed _ -> ()
            | Imdb_version.Vpage.Active ->
                QCheck.Test.fail_reportf "TID %s on a page resolves as active"
                  (Tid.to_string tid)
            | Imdb_version.Vpage.Unknown ->
                QCheck.Test.fail_reportf "TID %s on a page has no mapping"
                  (Tid.to_string tid))
          (unstamped_tids !db);
        Hashtbl.iter
          (fun (t, k) v ->
            Db.exec !db (fun txn ->
                if Db.get_row !db txn ~table:tables.(t) ~key:(S.V_int k) <> Some (row k v)
                then QCheck.Test.fail_reportf "%s/%d lost %s" tables.(t) k v))
          model;
        if LS.unknown_tids eng.E.stamper <> unknown0 then
          QCheck.Test.fail_report "a read met a TID with no mapping"
      in
      List.iter
        (function
          | Write ws ->
              tick clock;
              incr n;
              let ws = List.sort_uniq compare ws in
              ignore
                (commit_write !db (fun txn ->
                     List.iter
                       (fun (t, k) ->
                         let v = Printf.sprintf "v%d" !n in
                         Db.upsert_row !db txn ~table:tables.(t) (row k v);
                         Hashtbl.replace model (t, k) v)
                       ws))
          | Read (t, k) ->
              Db.exec !db (fun txn ->
                  ignore (Db.get_row !db txn ~table:tables.(t) ~key:(S.V_int k)))
          | Checkpoint -> Db.checkpoint !db
          | Crash ->
              db := Db.crash_and_reopen ~clock !db;
              check ())
        (drained_snapshot_prefix @ ops @ [ Crash ]);
      Db.close !db;
      true)

let suite =
  [
    Alcotest.test_case "crash before any commit" `Quick test_crash_before_any_commit;
    Alcotest.test_case "crash between commits" `Quick test_crash_between_commits;
    Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
    Alcotest.test_case "crash preserves history" `Quick test_crash_preserves_history;
    Alcotest.test_case "loser spanning splits" `Quick test_loser_spanning_splits;
    Alcotest.test_case "abort then crash" `Quick test_explicit_abort_then_crash;
    Alcotest.test_case "checkpointed recovery" `Quick test_checkpointed_recovery;
    Alcotest.test_case "conventional recovery" `Quick test_conventional_table_recovery;
    Alcotest.test_case "DDL crash" `Quick test_ddl_crash;
    Alcotest.test_case "old log format refused" `Quick test_old_format_refused;
    Alcotest.test_case "commit logs update and commit only" `Quick
      test_commit_logs_update_and_commit;
    Alcotest.test_case "loser chain from nil rolled back" `Quick test_loser_chain_from_nil;
    Alcotest.test_case "recovery reads one checkpoint interval of log" `Quick
      test_recovery_reads_one_interval;
    Alcotest.test_case "torn meta page falls back to LSN 0" `Quick test_torn_meta_falls_back;
    Alcotest.test_case "corrupt frame below the checkpoint raises" `Quick
      test_corrupt_frame_below_checkpoint;
    Alcotest.test_case "corrupt frame after the checkpoint is a torn tail" `Quick
      test_corrupt_frame_after_checkpoint;
    Alcotest.test_case "corrupt checkpoint frame refused" `Quick
      test_corrupt_checkpoint_frame;
    Alcotest.test_case "torn first append creates afresh" `Quick test_torn_first_append;
    Alcotest.test_case "VTT forgets pre-restart history" `Quick test_vtt_bounded_after_restart;
    Alcotest.test_case "recovery seeds only version-writing TIDs" `Quick
      test_recovery_seeds_version_writers;
    Alcotest.test_case "recovery seeds from the posting horizon" `Quick test_posting_horizon;
    QCheck_alcotest.to_alcotest prop_unstamped_tids_resolve;
    QCheck_alcotest.to_alcotest prop_crash_model;
  ]
