(* Ablation experiments for the design choices the paper argues in prose:
   TSB-tree indexing (Section 7.2), lazy vs eager timestamping (2.2),
   PTT garbage collection (2.2), integrated vs split storage (6.3),
   the key-split threshold T (3.3) and snapshot-isolation reads (1.2). *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module Table = Imdb_core.Table
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module Driver = Imdb_workload.Driver
module Mo = Imdb_workload.Moving_objects
module M = Imdb_obs.Metrics

(* --- Ext A: TSB-indexed AS OF vs page-chain traversal --------------------- *)

let tsb ~scale =
  let total = Harness.scaled ~scale 36000 in
  let inserts = Harness.scaled ~scale 500 in
  let chain = Fig6.series ~tsb:false ~inserts ~total in
  let indexed = Fig6.series ~tsb:true ~inserts ~total in
  let rows =
    List.map2
      (fun (pc, (c : Driver.scan_measure)) (_, (x : Driver.scan_measure)) ->
        [ string_of_int pc; Harness.ms c.Driver.sm_elapsed_s;
          string_of_int c.Driver.sm_pages; Harness.ms x.Driver.sm_elapsed_s;
          string_of_int x.Driver.sm_pages ])
      chain indexed
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext A: AS OF scan, page-chain walk vs TSB-tree index (%d txns, %d objects)"
         total inserts)
    ~header:[ "% hist"; "chain ms"; "chain pages"; "TSB ms"; "TSB pages" ]
    rows;
  Fmt.pr
    "paper prediction (7.2): with the TSB-tree, AS OF cost is ~independent of \
     the requested time.@."

(* --- Ext B: lazy vs eager timestamping ------------------------------------ *)

(* The eager strategy's measured drawbacks (Section 2.2): the commit must
   revisit every record the transaction touched — pages that may have left
   the buffer pool — and log every stamp, lengthening the commit path
   while locks are still held.  To exercise exactly that, transactions
   update [batch] random records spread over a key space much larger than
   the buffer pool, and we time the commit path separately. *)
let lazy_eager ~scale =
  let n_txns = Harness.scaled ~scale 400 in
  let batch = 50 in
  let key_space = 20000 in
  let run mode =
    Gc.compact ();
    let config =
      { E.default_config with E.timestamping = mode; E.pool_capacity = 64 }
    in
    let clock = Imdb_clock.Clock.create_logical () in
    let db = Db.open_memory ~config ~clock () in
    Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:Driver.moving_objects_schema;
    let rng = Imdb_util.Rng.create 7 in
    let commit_time = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to n_txns do
      Imdb_clock.Clock.advance clock 20L;
      let txn = Db.begin_txn db in
      for _ = 1 to batch do
        let k = Imdb_util.Rng.int rng key_space in
        Db.upsert_row db txn ~table:"t" [ S.V_int k; S.V_int i; S.V_int i ]
      done;
      let c0 = Unix.gettimeofday () in
      ignore (Db.commit db txn);
      commit_time := !commit_time +. (Unix.gettimeofday () -. c0)
    done;
    let total = Unix.gettimeofday () -. t0 in
    let m = Db.metrics db in
    let misses = M.get m M.buf_misses in
    let log_recs = M.get m M.log_appends in
    let log_bytes = M.get m M.log_bytes in
    Db.close db;
    (total, !commit_time, misses, log_recs, log_bytes)
  in
  let lt, lc, lm, lr, lb = run E.Lazy_stamping in
  let et, ec, em, er, eb = run E.Eager_stamping in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext B: lazy vs eager timestamping (%d txns x %d records over %d keys, \
          64-page pool)"
         n_txns batch key_space)
    ~header:
      [ "mode"; "total ms"; "commit-path ms"; "buf misses"; "log recs"; "log bytes" ]
    [
      [ "lazy"; Harness.ms lt; Harness.ms lc; string_of_int lm; string_of_int lr;
        string_of_int lb ];
      [ "eager"; Harness.ms et; Harness.ms ec; string_of_int em; string_of_int er;
        string_of_int eb ];
    ];
  Fmt.pr
    "paper argument (2.2): eager revisits every updated record at commit (extra \
     I/O for evicted pages), logs every stamp, and delays the commit record \
     while locks are held; lazy writes only its commit record and stamps later, \
     unlogged.@."

(* --- Ext C: PTT garbage collection ---------------------------------------- *)

let ptt_gc ~scale =
  let total = Harness.scaled ~scale 16000 in
  let inserts = min 500 total in
  let events = Mo.generate ~seed:42 ~inserts ~total () in
  let run ~checkpoint_every =
    let config = { E.default_config with E.auto_checkpoint_every = checkpoint_every } in
    let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
    (* sample PTT and VTT sizes every 2000 events *)
    let samples = ref [] in
    let sizes () =
      let eng = Db.engine db in
      ( Imdb_tstamp.Ptt.count (E.ptt_exn eng),
        List.length (Imdb_tstamp.Vtt.tids (E.vtt eng)) )
    in
    let count = ref 0 in
    List.iter
      (fun ev ->
        Imdb_clock.Clock.advance clock 20L;
        let txn = Db.begin_txn db in
        (match ev with
        | Mo.Insert { oid; x; y } ->
            Db.insert_row db txn ~table:"MovingObjects" [ S.V_int oid; S.V_int x; S.V_int y ]
        | Mo.Update { oid; x; y } ->
            Db.update_row db txn ~table:"MovingObjects" [ S.V_int oid; S.V_int x; S.V_int y ]);
        ignore (Db.commit db txn);
        incr count;
        if !count mod 2000 = 0 then samples := sizes () :: !samples)
      events;
    let final = sizes () in
    Db.close db;
    (List.rev !samples, final)
  in
  let gc_samples, gc_final = run ~checkpoint_every:1000 in
  let nogc_samples, nogc_final = run ~checkpoint_every:0 in
  let row label (gp, gv) (np, nv) =
    [ label; string_of_int gp; string_of_int gv; string_of_int np; string_of_int nv ]
  in
  let rows =
    List.mapi
      (fun i (g, n) -> row (string_of_int ((i + 1) * 2000)) g n)
      (List.combine gc_samples nogc_samples)
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext C: mappings held over time, checkpoint (post + GC) every 1000 commits \
          vs never (%d txns)"
         total)
    ~header:[ "after txns"; "PTT (ckpt)"; "VTT (ckpt)"; "PTT (none)"; "VTT (none)" ]
    (rows @ [ row "final" gc_final nogc_final ]);
  Fmt.pr
    "paper argument (2.2): incremental GC keeps the mappings few; mappings \
     reach the PTT only at checkpoints, so without them the VTT grows with \
     every transaction.@."

(* --- Ext D: integrated storage vs split store ------------------------------ *)

let split_store ~scale =
  let total = Harness.scaled ~scale 12000 in
  let inserts = min 500 total in
  let events = Mo.generate ~seed:42 ~inserts ~total () in
  let small_pool = { E.default_config with E.pool_capacity = 48 } in
  (* integrated: the engine's immortal table *)
  let db, clock = Driver.fresh_moving_objects ~config:small_pool ~mode:Db.Immortal () in
  let res = Driver.run_events ~clock db ~table:"MovingObjects" events in
  let n = List.length res.Driver.rr_commit_ts in
  let probe pc = List.nth res.Driver.rr_commit_ts (min (n - 1) (pc * n / 100)) in
  (* split store: same events, same engine substrate, two B-trees *)
  let clock2 = Imdb_clock.Clock.create_logical () in
  let db2 = Db.open_memory ~config:small_pool ~clock:clock2 () in
  let ss = Imdb_core.Split_store.create (Db.engine db2) ~table_id:99 in
  let encode_payload x y = Printf.sprintf "%d,%d" x y in
  List.iter
    (fun ev ->
      Imdb_clock.Clock.advance clock2 20L;
      let txn = Db.begin_txn db2 in
      (match ev with
      | Mo.Insert { oid; x; y } ->
          Imdb_core.Split_store.insert ss txn ~key:(S.encode_key (S.V_int oid))
            ~payload:(encode_payload x y)
      | Mo.Update { oid; x; y } ->
          Imdb_core.Split_store.update ss txn ~key:(S.encode_key (S.V_int oid))
            ~payload:(encode_payload x y));
      ignore (Db.commit db2 txn))
    events;
  let with_misses db f =
    let m = Db.metrics db in
    let before = M.get m M.buf_misses in
    let t, v = Harness.time_it f in
    (t, v, M.get m M.buf_misses - before)
  in
  (* full AS OF scans *)
  let scan_rows =
    List.map
      (fun pc ->
        let ts = probe pc in
        let t_int, n_int, m_int =
          with_misses db (fun () ->
              let c = ref 0 in
              Db.as_of db ts (fun txn ->
                  Db.scan db txn ~table:"MovingObjects" (fun _ _ -> incr c));
              !c)
        in
        let t_split, n_split, m_split =
          with_misses db2 (fun () ->
              let c = ref 0 in
              Db.exec db2 (fun txn ->
                  Imdb_core.Split_store.scan_as_of ss txn ~ts (fun _ _ -> incr c));
              !c)
        in
        ignore n_split;
        [ string_of_int pc; Harness.ms t_int; string_of_int m_int;
          Harness.ms t_split; string_of_int m_split; string_of_int n_int ])
      [ 25; 50; 75; 100 ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext D: full AS OF scans, integrated vs split store (%d txns, %d objects, \
          48-page pool)"
         total inserts)
    ~header:
      [ "% hist"; "integrated ms"; "misses"; "split ms"; "misses"; "rows" ]
    scan_rows;
  (* point AS OF reads: the double-structure probe the paper critiques *)
  let point_rows =
    List.map
      (fun pc ->
        let ts = probe pc in
        let t_int, _, m_int =
          with_misses db (fun () ->
              for oid = 1 to inserts do
                ignore
                  (Db.as_of db ts (fun txn ->
                       Db.get_row db txn ~table:"MovingObjects" ~key:(S.V_int oid)))
              done)
        in
        let t_split, _, m_split =
          with_misses db2 (fun () ->
              for oid = 1 to inserts do
                ignore
                  (Db.exec db2 (fun txn ->
                       Imdb_core.Split_store.read_as_of ss txn
                         ~key:(S.encode_key (S.V_int oid)) ~ts))
              done)
        in
        [ string_of_int pc; Harness.ms t_int; string_of_int m_int;
          Harness.ms t_split; string_of_int m_split ])
      [ 25; 50; 75; 100 ]
  in
  Db.close db;
  Db.close db2;
  Harness.print_table
    ~title:(Printf.sprintf "Ext D: %d point AS OF reads" inserts)
    ~header:[ "% hist"; "integrated ms"; "misses"; "split ms"; "misses" ]
    point_rows;
  Fmt.pr
    "paper argument (6.3): a separate history store forces AS OF queries to \
     search both structures; integrated storage touches one page set.@."

(* --- Ext E: key-split threshold T ------------------------------------------ *)

let util ~scale =
  let total = Harness.scaled ~scale 20000 in
  let inserts = min (Harness.scaled ~scale 4000) total in
  let events = Mo.generate ~seed:42 ~inserts ~total () in
  let run threshold =
    let config = { E.default_config with E.key_split_threshold = threshold } in
    let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
    ignore (Driver.run_events ~clock db ~table:"MovingObjects" events);
    (* single-timeslice utilization: live current bytes per current page *)
    let eng = Db.engine db in
    let ti = Db.table_info db "MovingObjects" in
    let utils = ref [] in
    List.iter
      (fun (_, _, pid) ->
        Imdb_buffer.Buffer_pool.with_page eng.E.pool pid (fun fr ->
            let page = Imdb_buffer.Buffer_pool.bytes fr in
            (* count only current (slot-visible) versions, i.e. the single
               newest time slice *)
            let live = ref 0 in
            List.iter
              (fun (_, slot) ->
                live := !live + Imdb_storage.Page.cell_length page slot + 2)
              (Imdb_version.Vpage.current_slots page);
            utils :=
              (float_of_int !live
              /. float_of_int (8192 - Imdb_storage.Page.header_size))
              :: !utils))
      (Table.router_ranges eng ti);
    let n_pages = List.length !utils in
    let mean = List.fold_left ( +. ) 0.0 !utils /. float_of_int (max 1 n_pages) in
    let m = Db.metrics db in
    let ks = M.get m M.key_splits and tss = M.get m M.time_splits in
    Db.close db;
    (mean, n_pages, ks, tss)
  in
  let rows =
    List.map
      (fun threshold ->
        let mean, pages, ks, tss = run threshold in
        [
          Fmt.str "%.2f" threshold;
          Fmt.str "%.3f" mean;
          Fmt.str "%.3f" (threshold *. log 2.0);
          string_of_int pages;
          string_of_int ks;
          string_of_int tss;
        ])
      [ 0.3; 0.5; 0.7; 0.9 ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext E: key-split threshold T vs current-timeslice utilization (%d txns)"
         total)
    ~header:
      [ "T"; "mean utilization"; "T*ln2 (theory)"; "current pages"; "key splits";
        "time splits" ]
    rows;
  Fmt.pr
    "paper claim (3.3): single-timeslice utilization under updates approaches \
     T*ln 2.@."

(* --- Ext F: snapshot-isolation reads --------------------------------------- *)

let snapshot ~scale =
  let n_rounds = Harness.scaled ~scale 2000 in
  let db, clock = Driver.fresh_moving_objects ~mode:Db.Immortal () in
  (* seed 100 objects *)
  for oid = 1 to 100 do
    Imdb_clock.Clock.advance clock 20L;
    let txn = Db.begin_txn db in
    Db.insert_row db txn ~table:"MovingObjects" [ S.V_int oid; S.V_int 0; S.V_int 0 ];
    ignore (Db.commit db txn)
  done;
  (* a long snapshot reader probes a key between writer commits *)
  let si_conflicts = ref 0 in
  let t_si, () =
    Harness.time_it (fun () ->
        let reader = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
        for i = 1 to n_rounds do
          Imdb_clock.Clock.advance clock 20L;
          let w = Db.begin_txn db in
          Db.update_row db w ~table:"MovingObjects"
            [ S.V_int (1 + (i mod 100)); S.V_int i; S.V_int i ];
          ignore (Db.commit db w);
          match Db.get_row db reader ~table:"MovingObjects" ~key:(S.V_int (1 + (i mod 100))) with
          | Some [ _; S.V_int x; _ ] when x = 0 -> () (* snapshot-stable *)
          | _ -> incr si_conflicts
        done;
        ignore (Db.commit db reader))
  in
  (* serializable reader: the writer conflicts against its S locks *)
  let ser_conflicts = ref 0 in
  let t_ser, () =
    Harness.time_it (fun () ->
        let reader = Db.begin_txn ~isolation:Db.Serializable db in
        for i = 1 to n_rounds do
          Imdb_clock.Clock.advance clock 20L;
          ignore (Db.get_row db reader ~table:"MovingObjects" ~key:(S.V_int (1 + (i mod 100))));
          let w = Db.begin_txn db in
          (match
             Db.update_row db w ~table:"MovingObjects"
               [ S.V_int (1 + (i mod 100)); S.V_int i; S.V_int i ]
           with
          | () -> ignore (Db.commit db w)
          | exception E.Deadlock_abort _ ->
              incr ser_conflicts;
              Db.abort db w)
        done;
        ignore (Db.commit db reader))
  in
  Db.close db;
  Harness.print_table
    ~title:(Printf.sprintf "Ext F: snapshot isolation vs 2PL reads (%d rounds)" n_rounds)
    ~header:
      [ "reader mode"; "elapsed ms"; "reader anomalies"; "writes blocked";
        "writes committed" ]
    [
      [ "snapshot"; Harness.ms t_si; string_of_int !si_conflicts; "0";
        string_of_int n_rounds ];
      [ "serializable"; Harness.ms t_ser; "0"; string_of_int !ser_conflicts;
        string_of_int (n_rounds - !ser_conflicts) ];
    ];
  Fmt.pr
    "paper claim (1.2): snapshot reads are never blocked by concurrent updates \
     and see a stable snapshot; 2PL readers block writers instead.@."

(* --- Ext G: storage amplification of immortality ---------------------------- *)

(* What does keeping every version cost in space?  Compare page counts
   across table modes on the same stream, and measure the redundancy that
   time splits introduce (versions copied to both pages, Fig. 3 case 2).
   The paper's design accepts this redundancy to guarantee that every
   page contains all versions alive in its time range. *)
let space ~scale =
  let total = Harness.scaled ~scale 20000 in
  let inserts = min 500 total in
  let events = Mo.generate ~seed:42 ~inserts ~total () in
  let logical_bytes = total * 33 (* ~ one version's record bytes *) in
  let run mode =
    let db, clock = Driver.fresh_moving_objects ~mode () in
    ignore (Driver.run_events ~clock db ~table:"MovingObjects" events);
    let hwm = (Db.engine db).E.meta.Imdb_core.Meta.hwm in
    let m = Db.metrics db in
    let copied = M.get m M.split_copied in
    let tss = M.get m M.time_splits and kss = M.get m M.key_splits in
    Db.close db;
    (hwm, tss, kss, copied)
  in
  let rows =
    List.map
      (fun (label, mode) ->
        let hwm, tss, kss, _ = run mode in
        [
          label;
          string_of_int hwm;
          Fmt.str "%.1fx" (float_of_int (hwm * 8192) /. float_of_int logical_bytes);
          string_of_int tss;
          string_of_int kss;
        ])
      [
        ("immortal", Db.Immortal);
        ("snapshot", Db.Snapshot_table);
        ("conventional", Db.Conventional);
      ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ext G: storage across table modes (%d txns, %d objects; logical data \
          ~%d KB)"
         total inserts (logical_bytes / 1024))
    ~header:[ "mode"; "pages"; "bytes/logical"; "time splits"; "key splits" ]
    rows;
  Fmt.pr
    "immortality stores every version (plus split redundancy); snapshot tables \
     GC to the visible set; conventional stores only current rows.@."

(* --- Ext H: recovery time vs checkpoint frequency ---------------------------- *)

(* Checkpointing exists to bound recovery (and to advance the PTT GC
   horizon).  Crash after N transactions under different checkpoint
   intervals and measure the restart: recovery's one pass over the log
   starts at most one interval before the last checkpoint, so the log
   recovery reads shrinks with the interval and stays flat as
   uptime grows, at the cost of checkpoint-time page sweeps during
   normal operation.  The log device counts the bytes read from it. *)

type recovery_point = {
  rp_load_s : float;
  rp_recovery_s : float;
  rp_disk_reads : int;
  rp_log_bytes : int; (* log size at the crash *)
  rp_log_bytes_read : int; (* by the reopen *)
  rp_rows : int;
}

(* Load [events] into a fresh immortal moving-objects table, crash, and
   reopen. *)
let crash_and_recover ~every events =
  let config = { E.default_config with E.auto_checkpoint_every = every } in
  let dev = Imdb_wal.Wal.Device.in_memory () in
  let read = ref 0 in
  let log_device =
    {
      dev with
      Imdb_wal.Wal.Device.read =
        (fun ~pos ~len ->
          read := !read + len;
          dev.Imdb_wal.Wal.Device.read ~pos ~len);
    }
  in
  let clock = Imdb_clock.Clock.create_logical () in
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Db.create_table db ~name:"MovingObjects" ~mode:Db.Immortal
    ~schema:Driver.moving_objects_schema;
  let load = Driver.run_events ~clock db ~table:"MovingObjects" events in
  let log_bytes = log_device.Imdb_wal.Wal.Device.size () in
  read := 0;
  let t0 = Unix.gettimeofday () in
  let db = Db.crash_and_reopen ~config ~clock db in
  let recovery_s = Unix.gettimeofday () -. t0 in
  let log_bytes_read = !read in
  (* the reopened engine carries a fresh registry, so its counters are
     exactly the work recovery did *)
  let disk_reads = M.get (Db.metrics db) M.disk_reads in
  (* recovered data sanity: all objects present *)
  let _, rows = Driver.timed_scan_current db ~table:"MovingObjects" in
  Db.close db;
  {
    rp_load_s = load.Driver.rr_elapsed_s;
    rp_recovery_s = recovery_s;
    rp_disk_reads = disk_reads;
    rp_log_bytes = log_bytes;
    rp_log_bytes_read = log_bytes_read;
    rp_rows = rows;
  }

(* The two sweeps: checkpoint interval at a fixed uptime, and uptime at
   a fixed interval.  Returns both as (parameter, point) lists. *)
let recovery_sweeps ~scale =
  let total = Harness.scaled ~scale 16000 in
  let events = Mo.generate ~seed:42 ~inserts:(min 500 total) ~total () in
  let intervals =
    List.map
      (fun every -> (every, crash_and_recover ~every events))
      [ 0; Harness.scaled ~scale 4000; Harness.scaled ~scale 1000; Harness.scaled ~scale 250 ]
  in
  let every = Harness.scaled ~scale 2000 in
  let uptimes = List.map (Harness.scaled ~scale) [ 4000; 8000; 16000; 32000; 64000 ] in
  let longest =
    Mo.generate ~seed:42 ~inserts:(min 500 (List.hd uptimes))
      ~total:(List.fold_left max 0 uptimes) ()
  in
  let uptime =
    List.map
      (fun n -> (n, crash_and_recover ~every (List.filteri (fun i _ -> i < n) longest)))
      uptimes
  in
  (total, intervals, every, uptime)

let recovery ~scale =
  let total, intervals, every, uptime = recovery_sweeps ~scale in
  let cells rp =
    [
      Harness.ms rp.rp_load_s;
      Harness.ms rp.rp_recovery_s;
      string_of_int rp.rp_disk_reads;
      string_of_int (rp.rp_log_bytes / 1024);
      string_of_int (rp.rp_log_bytes_read / 1024);
      string_of_int rp.rp_rows;
    ]
  in
  let header = [ "load ms"; "recovery ms"; "recovery reads"; "log KB"; "log KB read"; "rows" ] in
  Harness.print_table
    ~title:
      (Printf.sprintf "Ext H: recovery time vs checkpoint interval (%d txns)" total)
    ~header:("ckpt every" :: header)
    (List.map
       (fun (every, rp) -> (if every = 0 then "never" else string_of_int every) :: cells rp)
       intervals);
  Harness.print_table
    ~title:(Printf.sprintf "Ext H: recovery time vs uptime (checkpoint every %d)" every)
    ~header:("txns" :: header)
    (List.map (fun (n, rp) -> string_of_int n :: cells rp) uptime);
  Fmt.pr
    "checkpoints bound the log recovery reads (and keep the PTT collected) at \
     the cost of periodic page sweeps during normal operation.@."

(* --- deterministic ablation counters for the CI gate ------------------------ *)

(* The named experiments above print operator tables (with wall times);
   this one distills their deterministic skeletons into BENCH_ablations:
   PTT sizes with and without GC (plus the batched-drain histogram),
   page counts across table modes, the logging cost of lazy vs eager
   timestamping, and the log bytes a recovery reads across checkpoint
   intervals and uptimes.  Every value is a pure function of the workload. *)
let ablations ~scale =
  (* Ext C: final PTT size with and without GC, and the batch drains *)
  let gc_txns = Harness.scaled ~scale 16000 in
  let gc_events = Mo.generate ~seed:42 ~inserts:(min 500 gc_txns) ~total:gc_txns () in
  let run_gc ~checkpoint_every =
    let config = { E.default_config with E.auto_checkpoint_every = checkpoint_every } in
    let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
    ignore (Driver.run_events ~clock db ~table:"MovingObjects" gc_events);
    let eng = Db.engine db in
    let final = Imdb_tstamp.Ptt.count (E.ptt_exn eng) in
    let vtt_final = List.length (Imdb_tstamp.Vtt.tids (E.vtt eng)) in
    let h = M.histogram (Db.metrics db) M.h_ptt_gc_batch in
    Db.close db;
    (final, vtt_final, h)
  in
  (* a checkpoint interval that the quick scale still reaches *)
  let gc_final, gc_vtt, gc_hist =
    run_gc ~checkpoint_every:(max 50 (Harness.scaled ~scale 1000))
  in
  let nogc_final, nogc_vtt, _ = run_gc ~checkpoint_every:0 in
  let gc_batches, gc_drained =
    match gc_hist with
    | Some h -> (h.M.h_count, h.M.h_sum)
    | None -> (0, 0)
  in
  (* Ext G: storage across table modes *)
  let sp_txns = Harness.scaled ~scale 20000 in
  let sp_events = Mo.generate ~seed:42 ~inserts:(min 500 sp_txns) ~total:sp_txns () in
  let run_space (label, mode) =
    let db, clock = Driver.fresh_moving_objects ~mode () in
    ignore (Driver.run_events ~clock db ~table:"MovingObjects" sp_events);
    let hwm = (Db.engine db).E.meta.Imdb_core.Meta.hwm in
    let m = Db.metrics db in
    let tss = M.get m M.time_splits and kss = M.get m M.key_splits in
    Db.close db;
    let module J = Imdb_obs.Json in
    J.Obj
      [
        ("mode", J.String label);
        ("pages", J.Int hwm);
        ("time_splits", J.Int tss);
        ("key_splits", J.Int kss);
      ]
  in
  let space_series =
    List.map run_space
      [
        ("immortal", Db.Immortal);
        ("snapshot", Db.Snapshot_table);
        ("conventional", Db.Conventional);
      ]
  in
  (* Ext B: the logging cost of eager timestamping *)
  let ts_txns = Harness.scaled ~scale 400 in
  let run_stamping mode =
    let config =
      { E.default_config with E.timestamping = mode; E.pool_capacity = 64 }
    in
    let clock = Imdb_clock.Clock.create_logical () in
    let db = Db.open_memory ~config ~clock () in
    Db.create_table db ~name:"t" ~mode:Db.Immortal
      ~schema:Driver.moving_objects_schema;
    let rng = Imdb_util.Rng.create 7 in
    for i = 1 to ts_txns do
      Imdb_clock.Clock.advance clock 20L;
      let txn = Db.begin_txn db in
      for _ = 1 to 50 do
        let k = Imdb_util.Rng.int rng 20000 in
        Db.upsert_row db txn ~table:"t" [ S.V_int k; S.V_int i; S.V_int i ]
      done;
      ignore (Db.commit db txn)
    done;
    let m = Db.metrics db in
    let recs = M.get m M.log_appends and bytes = M.get m M.log_bytes in
    Db.close db;
    (recs, bytes)
  in
  let lazy_recs, lazy_bytes = run_stamping E.Lazy_stamping in
  let eager_recs, eager_bytes = run_stamping E.Eager_stamping in
  (* Ext H: the log bytes a recovery reads *)
  let rec_txns, rec_intervals, rec_every, rec_uptime = recovery_sweeps ~scale in
  let module J = Imdb_obs.Json in
  let bytes_obj (key, n) rp =
    J.Obj
      [
        (key, J.Int n);
        ("log_bytes", J.Int rp.rp_log_bytes);
        ("log_bytes_read", J.Int rp.rp_log_bytes_read);
      ]
  in
  Harness.emit_json ~name:"ablations"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ( "ptt_gc",
           J.Obj
             [
               ("txns", J.Int gc_txns);
               ("final_with_gc", J.Int gc_final);
               ("final_without_gc", J.Int nogc_final);
               ("vtt_final_with_gc", J.Int gc_vtt);
               ("vtt_final_without_gc", J.Int nogc_vtt);
               ("gc_batches", J.Int gc_batches);
               ("gc_drained", J.Int gc_drained);
             ] );
         ("space", J.List space_series);
         ( "timestamping",
           J.Obj
             [
               ("txns", J.Int ts_txns);
               ("lazy_log_records", J.Int lazy_recs);
               ("lazy_log_bytes", J.Int lazy_bytes);
               ("eager_log_records", J.Int eager_recs);
               ("eager_log_bytes", J.Int eager_bytes);
             ] );
         ( "recovery",
           J.Obj
             [
               ("txns", J.Int rec_txns);
               ( "by_interval",
                 J.List
                   (List.map
                      (fun (every, rp) -> bytes_obj ("checkpoint_every", every) rp)
                      rec_intervals) );
               ("uptime_checkpoint_every", J.Int rec_every);
               ( "by_uptime",
                 J.List (List.map (fun (n, rp) -> bytes_obj ("txns", n) rp) rec_uptime) );
             ] );
       ]);
  Harness.print_table
    ~title:
      (Printf.sprintf
         "ablations (CI gate): PTT GC (%d txns), storage modes (%d txns), \
          stamping strategies (%d txns)"
         gc_txns sp_txns ts_txns)
    ~header:[ "quantity"; "value" ]
    ([
      [ "PTT final (GC on)"; string_of_int gc_final ];
      [ "PTT final (GC off)"; string_of_int nogc_final ];
      [ "VTT final (GC on)"; string_of_int gc_vtt ];
      [ "VTT final (GC off)"; string_of_int nogc_vtt ];
      [ "GC batch drains"; string_of_int gc_batches ];
      [ "TIDs drained"; string_of_int gc_drained ];
      [ "lazy log bytes"; string_of_int lazy_bytes ];
      [ "eager log bytes"; string_of_int eager_bytes ];
    ]
    @ List.map
        (fun (every, rp) ->
          [
            Printf.sprintf "log read / log, ckpt every %d" every;
            Printf.sprintf "%d / %d" rp.rp_log_bytes_read rp.rp_log_bytes;
          ])
        rec_intervals
    @ List.map
        (fun (n, rp) ->
          [
            Printf.sprintf "log read / log, %d txns" n;
            Printf.sprintf "%d / %d" rp.rp_log_bytes_read rp.rp_log_bytes;
          ])
        rec_uptime)

let () =
  Harness.register ~name:"tsb" ~doc:"TSB index vs chain walk (Ext A)" tsb;
  Harness.register ~name:"ablations"
    ~doc:"deterministic ablation counters for the CI gate (Ext B/C/G/H)" ablations;
  Harness.register ~name:"lazy-eager" ~doc:"lazy vs eager timestamping (Ext B)" lazy_eager;
  Harness.register ~name:"ptt-gc" ~doc:"PTT garbage collection (Ext C)" ptt_gc;
  Harness.register ~name:"split-store" ~doc:"integrated vs split store (Ext D)" split_store;
  Harness.register ~name:"util" ~doc:"key-split threshold sweep (Ext E)" util;
  Harness.register ~name:"snapshot" ~doc:"snapshot isolation reads (Ext F)" snapshot;
  Harness.register ~name:"space" ~doc:"storage amplification (Ext G)" space;
  Harness.register ~name:"recovery" ~doc:"recovery time vs checkpoints (Ext H)" recovery
