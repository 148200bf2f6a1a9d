(* Fault injection: crashes at exact disk writes (including torn page
   writes) and recovery from each.  Uses the failure-injecting disk
   wrapper and an exhaustive sweep over injection points. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Disk = Imdb_storage.Disk
module Wal = Imdb_wal.Wal
module Ts = Imdb_clock.Timestamp

let kv_schema = Helpers.kv_schema
let row = Helpers.row

(* Run [workload] against a database whose disk fails (optionally tearing
   the in-flight page) after [fail_after] page writes — counting only the
   writes [target] matches, when given; then lift the failure plan and
   recover.  Returns the recovered database. *)
let run_with_injection ?target ~tear ~fail_after workload =
  let plan = Disk.never_fail () in
  let disk = Disk.failing ~plan (Disk.in_memory ~page_size:8192 ()) in
  let log_device = Wal.Device.in_memory () in
  let clock = Imdb_clock.Clock.create_logical () in
  (* small pool + frequent checkpoints: plenty of page writes to target *)
  let config = { E.default_config with E.pool_capacity = 8; E.auto_checkpoint_every = 20 } in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Disk.arm plan ~tear ?target ~after:fail_after ();
  let crashed =
    try
      workload db clock;
      false
    with Disk.Io_failure _ -> true
  in
  (* lift the injection and recover over the same devices *)
  Disk.lift plan;
  Imdb_wal.Wal.crash_volatile (Db.engine db).E.wal;
  Imdb_buffer.Buffer_pool.drop_all (Db.engine db).E.pool;
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  (db, clock, crashed)

let standard_workload db clock =
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for u = 1 to 120 do
    Imdb_clock.Clock.advance clock 20L;
    Db.with_txn db (fun txn ->
        Db.upsert_row db txn ~table:"t" (row (u mod 6) (Printf.sprintf "v%d" u)))
  done

(* After recovery, whatever committed must be present and internally
   consistent: each key's value is the latest of its committed updates,
   and history per key is a prefix of the update sequence. *)
let validate db =
  Db.exec db (fun txn ->
      match Db.list_tables db with
      | [] -> () (* crashed before the DDL committed: fine *)
      | _ ->
          let rows = Db.scan_rows db txn ~table:"t" in
          List.iter
            (fun r ->
              match r with
              | [ S.V_int k; S.V_string v ] ->
                  (* value "vU" must satisfy U mod 6 = k *)
                  let u = int_of_string (String.sub v 1 (String.length v - 1)) in
                  if u mod 6 <> k then
                    Alcotest.failf "key %d has foreign value %s" k v
              | _ -> Alcotest.fail "bad row shape")
            rows)

let test_injection_sweep () =
  (* every 7th write as the failure point, with and without tearing *)
  let crashes = ref 0 in
  let points = [ 1; 3; 8; 15; 22; 29; 36; 43; 50; 64; 78; 92 ] in
  List.iter
    (fun fail_after ->
      List.iter
        (fun tear ->
          let db, _clock, crashed =
            run_with_injection ~tear ~fail_after standard_workload
          in
          if crashed then incr crashes;
          validate db;
          Db.close db)
        [ false; true ])
    points;
  (* the sweep must actually have hit the workload *)
  Alcotest.(check bool)
    (Printf.sprintf "injections fired (%d crashes)" !crashes)
    true (!crashes > 0)

let test_work_continues_after_recovery () =
  let db, clock, crashed = run_with_injection ~tear:true ~fail_after:10 standard_workload in
  Alcotest.(check bool) "crashed as planned" true crashed;
  (* the engine accepts new transactions post-recovery *)
  Imdb_clock.Clock.advance clock 20L;
  Db.with_txn db (fun txn -> Db.upsert_row db txn ~table:"t" (row 0 "post-recovery"));
  Db.exec db (fun txn ->
      Alcotest.(check bool) "new write visible" true
        (Db.get_row db txn ~table:"t" ~key:(S.V_int 0) = Some (row 0 "post-recovery")));
  Db.close db

let test_torn_meta_page () =
  (* tear the write of page 0 specifically: recovery falls back to a full
     log scan (checkpoint pointer unreadable) and still comes up *)
  let plan = Disk.never_fail () in
  let disk = Disk.failing ~plan (Disk.in_memory ~page_size:8192 ()) in
  let log_device = Wal.Device.in_memory () in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_devices ~clock ~disk ~log_device () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Imdb_clock.Clock.advance clock 20L;
  Db.with_txn db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "x"));
  (* force a checkpoint whose meta-page write tears *)
  Disk.arm plan ~tear:true ~target:(Disk.Writes_to_page 0) ~after:0 ();
  (match Db.checkpoint db with
  | () -> ()
  | exception Disk.Io_failure _ -> ());
  Disk.lift plan;
  Imdb_wal.Wal.crash_volatile (Db.engine db).E.wal;
  Imdb_buffer.Buffer_pool.drop_all (Db.engine db).E.pool;
  let db2 = Db.open_devices ~clock ~disk ~log_device () in
  Db.exec db2 (fun txn ->
      Alcotest.(check bool) "data survived torn meta" true
        (Db.get_row db2 txn ~table:"t" ~key:(S.V_int 1) = Some (row 1 "x")));
  Db.close db2

(* --- crashes inside an explicit abort ----------------------------------------

   One transaction overwrites every key, then aborts; the disk fails at
   the k-th page write the abort makes after logging its first undo
   effect (eviction from the 8-frame pool, as undo walks the keys).  The
   log has no Abort record, so recovery must find the half-aborted
   transaction a loser from its Update chain and undo it again, skipping
   the effects that already happened. *)

let abort_keys = 240
let committed_value k round = Printf.sprintf "c%d-%d-%s" round k (String.make 120 'c')
let aborted_value k = Printf.sprintf "aborted-%d-%s" k (String.make 120 'a')

(* Two committed rounds over every key, then the aborted overwrite.
   [in_abort] answers whether a page write falls inside the abort, past
   its first undo effect. *)
let abort_workload ~isolation ~in_abort db clock =
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for round = 1 to 2 do
    Imdb_clock.Clock.advance clock 20L;
    Db.with_txn db (fun txn ->
        for k = 0 to abort_keys - 1 do
          Db.upsert_row db txn ~table:"t" (row k (committed_value k round))
        done)
  done;
  Imdb_clock.Clock.advance clock 20L;
  let txn = Db.begin_txn ~isolation db in
  for k = 0 to abort_keys - 1 do
    Db.upsert_row db txn ~table:"t" (row k (aborted_value k))
  done;
  let wal = (Db.engine db).E.wal in
  let start = Wal.next_lsn wal in
  in_abort := (fun () -> Int64.compare (Wal.next_lsn wal) start > 0);
  Fun.protect
    ~finally:(fun () -> in_abort := fun () -> false)
    (fun () -> Db.abort db txn)

let validate_abort db =
  Db.exec db (fun txn ->
      for k = 0 to abort_keys - 1 do
        let last = row k (committed_value k 2) in
        if Db.get_row db txn ~table:"t" ~key:(S.V_int k) <> Some last then
          Alcotest.failf "key %d does not show its last committed value" k;
        let hist = List.map snd (Db.history_rows db txn ~table:"t" ~key:(S.V_int k)) in
        if hist <> [ Some last; Some (row k (committed_value k 1)) ] then
          Alcotest.failf "history of key %d is not its committed writes" k
      done)

let abort_sweep ~isolation () =
  let crashes = ref 0 in
  List.iter
    (fun fail_after ->
      List.iter
        (fun tear ->
          let in_abort = ref (fun () -> false) in
          let target = Disk.Writes_matching (fun _ _ -> !in_abort ()) in
          let db, _clock, crashed =
            run_with_injection ~target ~tear ~fail_after
              (abort_workload ~isolation ~in_abort)
          in
          if crashed then incr crashes;
          validate_abort db;
          Db.close db)
        [ false; true ])
    [ 0; 1; 2; 3; 5; 8; 12 ];
  Alcotest.(check bool)
    (Printf.sprintf "injections fired inside the abort (%d crashes)" !crashes)
    true (!crashes >= 10)

(* --- torn-page twin regressions --------------------------------------------

   Run the same deterministic workload on a crash engine and an uncrashed
   twin, tear a targeted page write on the crash engine (a data-page
   flush, or a mid-time-split history write), recover it, and require
   (a) the checksum scrub detected and rebuilt the torn page and (b) every
   AS OF answer over the durable prefix is identical to the twin's. *)

module Pg = Imdb_storage.Page
module M = Imdb_obs.Metrics

let twin_config =
  (* small pages + small pool: frequent evictions and time splits, so the
     targeted write arrives within a few phase-2 transactions *)
  { E.default_config with
    E.page_size = 1024; pool_capacity = 8 }

let twin_value u = Printf.sprintf "v%03d-%s" u (String.make 180 'x')

(* Shared prefix: 60 upserts over 6 keys; returns the commit timestamps
   (the AS OF probe points). *)
let twin_phase1 db clock =
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let stamps = ref [] in
  for u = 1 to 60 do
    Imdb_clock.Clock.advance clock 20L;
    let txn = Db.begin_txn db in
    Db.upsert_row db txn ~table:"t" (row (u mod 6) (twin_value u));
    match Db.commit db txn with
    | Some ts -> stamps := ts :: !stamps
    | None -> Alcotest.fail "phase-1 commit returned no timestamp"
  done;
  List.rev !stamps

let torn_twin_case ~page_types () =
  (* the uncrashed twin: phase 1 only *)
  let twin_clock = Imdb_clock.Clock.create_logical () in
  let twin =
    Db.open_devices ~config:twin_config ~clock:twin_clock
      ~disk:(Disk.in_memory ~page_size:twin_config.E.page_size ())
      ~log_device:(Wal.Device.in_memory ()) ()
  in
  let twin_stamps = twin_phase1 twin twin_clock in
  (* the crash engine: phase 1, checkpoint (phase-1 commits durable),
     then phase-2 churn with the torn write armed *)
  let plan = Disk.never_fail () in
  let inner = Disk.in_memory ~page_size:twin_config.E.page_size () in
  let disk = Disk.failing ~plan inner in
  (* Tear only a write whose second half differs from what is already on
     the platter: the torn image (new first half + stale second half)
     then provably fails its checksum, so the recovery scrub must detect
     it — no lucky harmless tears. *)
  let target =
    Disk.Writes_matching
      (fun id b ->
        List.mem (Pg.page_type b) page_types
        &&
        let half = twin_config.E.page_size / 2 in
        let stale =
          try inner.Disk.read_page id
          with Disk.Page_missing _ -> Bytes.make twin_config.E.page_size '\000'
        in
        not (Bytes.equal (Bytes.sub b half half) (Bytes.sub stale half half)))
  in
  let log_device = Wal.Device.in_memory () in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_devices ~config:twin_config ~clock ~disk ~log_device () in
  let stamps = twin_phase1 db clock in
  Alcotest.(check int) "twin ran the same prefix" (List.length twin_stamps)
    (List.length stamps);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same commit timestamps" true (Ts.equal a b))
    twin_stamps stamps;
  Db.checkpoint db;
  Disk.arm plan ~tear:true ~target ~after:0 ();
  let crashed = ref false in
  (try
     for u = 61 to 400 do
       Imdb_clock.Clock.advance clock 20L;
       Db.with_txn db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (u mod 6) (twin_value u)))
     done
   with Disk.Io_failure _ -> crashed := true);
  Alcotest.(check bool) "targeted write tore" true !crashed;
  Disk.lift plan;
  Imdb_wal.Wal.crash_volatile (Db.engine db).E.wal;
  Imdb_buffer.Buffer_pool.drop_all (Db.engine db).E.pool;
  let db2 = Db.open_devices ~config:twin_config ~clock ~disk ~log_device () in
  Alcotest.(check bool) "checksum scrub caught the torn page" true
    (M.get (Db.metrics db2) M.recovery_torn_pages >= 1);
  (* every phase-1 AS OF state must match the twin exactly *)
  List.iter
    (fun ts ->
      let scan d = Db.as_of d ts (fun txn -> Db.scan_rows_as_of d txn ~table:"t" ~ts) in
      if scan db2 <> scan twin then
        Alcotest.failf "AS OF %s diverges from the uncrashed twin" (Ts.to_string ts))
    stamps;
  (* per-key history over the prefix window must match too *)
  let upto ts hist =
    List.filter (fun (t, _) -> Ts.compare t ts <= 0) hist
  in
  let last = List.nth stamps (List.length stamps - 1) in
  for k = 0 to 5 do
    let hist d =
      Db.exec d (fun txn -> Db.history_rows d txn ~table:"t" ~key:(S.V_int k))
    in
    if upto last (hist db2) <> upto last (hist twin) then
      Alcotest.failf "history of key %d diverges from the uncrashed twin" k
  done;
  Db.close db2;
  Db.close twin

let test_torn_twin_group_commit () = torn_twin_case ~page_types:[ Pg.P_data ] ()

let test_torn_twin_time_split () =
  torn_twin_case ~page_types:[ Pg.P_history_compressed ] ()

let suite =
  [
    Alcotest.test_case "injection sweep" `Slow test_injection_sweep;
    Alcotest.test_case "work continues after recovery" `Quick
      test_work_continues_after_recovery;
    Alcotest.test_case "torn meta page" `Quick test_torn_meta_page;
    Alcotest.test_case "crash inside abort: per-row path" `Quick
      (abort_sweep ~isolation:Db.Snapshot_isolation);
    Alcotest.test_case "crash inside abort: buffered path" `Quick
      (abort_sweep ~isolation:Db.Serializable);
    Alcotest.test_case "torn twin: mid group commit" `Quick
      test_torn_twin_group_commit;
    Alcotest.test_case "torn twin: mid time split" `Quick
      test_torn_twin_time_split;
  ]
