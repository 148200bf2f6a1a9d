(* Hot-path experiment: the workloads the CLOCK eviction, cached key
   directories and the WAL commit flush target.

   - evict:  point reads over a working set much larger than a tiny
     buffer pool.  Reports wall time plus the counters that certify the
     behaviour: CLOCK sweep steps stay within a small constant of
     evictions (O(1) amortized, where the old policy scanned every frame
     per eviction), and the keydir hit/miss split shows routing-node
     searches being served by binary search (leaves are scanned and
     count in neither).
   - commit: single-update transactions against a file-backed log.  Every
     commit syncs the log through its own commit record before it
     returns, so one session pays one sync per commit.
   - alloc: minor words per TSB-indexed AS OF point, current-time get,
     time split, empty transaction and one-row update transaction on an
     immortal and on a conventional table.

   BENCH_hotpath.json carries only the deterministic logical counters
   (never wall time), so scripts/bench_check.sh can hold them to their
   baselines: exactly, except the minor words under "alloc" (±3 %). *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module S = Imdb_core.Schema

let schema =
  S.make
    [
      { S.col_name = "id"; col_type = S.T_int };
      { S.col_name = "val"; col_type = S.T_string };
    ]

let row i v = [ S.V_int i; S.V_string v ]

(* --- eviction-heavy --------------------------------------------------------

   Small pages and a 16-frame pool against thousands of rows: nearly every
   page touch is a miss, so the eviction policy dominates. *)

let evict_config =
  {
    E.default_config with
    E.page_size = 512;
    pool_capacity = 16;
    auto_checkpoint_every = 0;
  }

let evict_phase ~scale =
  let rows = Harness.scaled ~scale 8000 in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config:evict_config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let elapsed, () =
    Harness.time_it (fun () ->
        for i = 0 to rows - 1 do
          Imdb_clock.Clock.advance clock 20L;
          Db.exec db (fun txn -> Db.insert_row db txn ~table:"t" (row i "xxxxxxxx"))
        done;
        (* strided point reads defeat the pool; the second pass re-reads
           the same pages while they are search-hot *)
        for _pass = 1 to 2 do
          let i = ref 0 in
          for _ = 0 to rows - 1 do
            Db.exec db (fun txn ->
                ignore (Db.get_row db txn ~table:"t" ~key:(S.V_int !i)));
            i := (!i + 7) mod rows
          done
        done)
  in
  let m = Db.metrics db in
  let g = M.get m in
  let counters =
    [
      ("rows", rows);
      ("evictions", g M.buf_evictions);
      ("clock_sweeps", g M.buf_clock_sweeps);
      ("keydir_hits", g M.keydir_hits);
      ("keydir_misses", g M.keydir_misses);
      ("disk_reads", g M.disk_reads);
      ("disk_writes", g M.disk_writes);
    ]
  in
  Db.close db;
  (elapsed, counters)

(* --- commit-heavy ----------------------------------------------------------

   A file-backed log makes each sync a real system call. *)

let commit_phase ~scale =
  let txns = Harness.scaled ~scale 2000 in
  let path = Filename.temp_file "imdb_hotpath" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let config =
{ E.default_config with E.auto_checkpoint_every = 0 }
      in
      let clock = Imdb_clock.Clock.create_logical () in
      let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
      let db =
        Db.open_devices ~config ~clock ~disk
          ~log_device:(Imdb_wal.Wal.Device.file ~path) ()
      in
      Db.create_table db ~name:"t" ~mode:Db.Conventional ~schema;
      Db.exec db (fun txn -> Db.insert_row db txn ~table:"t" (row 0 "y"));
      let elapsed, () =
        Harness.time_it (fun () ->
            for _ = 1 to txns do
              Imdb_clock.Clock.advance clock 20L;
              Db.exec db (fun txn -> Db.update_row db txn ~table:"t" (row 0 "y"))
            done)
      in
      Db.checkpoint db;
      let m = Db.metrics db in
      let flushes = M.get m M.log_flushes in
      let batches, batched =
        match M.histogram m M.h_group_commit_batch with
        | Some h -> (h.M.h_count, h.M.h_sum)
        | None -> (0, 0)
      in
      Db.close db;
      (elapsed, txns, flushes, batches, batched))

(* --- allocation --------------------------------------------------------------

   Minor words per operation, counted by [Gc.minor_words] on the one
   domain that runs everything (page-sized buffers go straight to the
   major heap and are not counted).  Single-row snapshot-isolation
   upserts over a few dozen keys on 4 KiB pages time-split every few
   dozen commits and feed the TSB index.  A time split's words are the
   words of the commits that split beyond the mean of those that did not,
   per split, and a one-row commit's words are the mean of those that did
   not split.  Then AS OF point lookups deep in the history, which the
   index answers, and current-time gets of the same keys; their wall
   time is printed too.  Last, empty transactions (begin and commit) and
   one-row updates of a warm conventional table with the same keys.  The size is fixed (not scaled) and the run
   seeded under the logical clock, so the counts reproduce;
   scripts/bench_check.sh holds them to ±3 %. *)

let alloc_config =
  { E.default_config with E.page_size = 4096; auto_checkpoint_every = 0 }

let alloc_phase () =
  let keys = 64 and writes = 3000 and points = 500 in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config:alloc_config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let m = Db.metrics db in
  let rng = Imdb_util.Rng.create 15 in
  let stamps = Array.make writes Imdb_clock.Timestamp.zero in
  let split_commits = ref 0 and split_words = ref 0. and other_words = ref 0. in
  for i = 0 to writes - 1 do
    Imdb_clock.Clock.advance clock 20L;
    let r = row (Imdb_util.Rng.int rng keys) (Printf.sprintf "%040d" i) in
    let splits = M.get m M.time_splits and w0 = Gc.minor_words () in
    let txn = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
    Db.upsert_row db txn ~table:"t" r;
    stamps.(i) <- Option.get (Db.commit db txn);
    let w = Gc.minor_words () -. w0 in
    if M.get m M.time_splits > splits then begin
      incr split_commits;
      split_words := !split_words +. w
    end
    else other_words := !other_words +. w
  done;
  let time_splits = M.get m M.time_splits in
  let mean_other = !other_words /. float_of_int (writes - !split_commits) in
  let per_split =
    (!split_words -. (float_of_int !split_commits *. mean_other))
    /. float_of_int time_splits
  in
  (* probes drawn up front, so the measured loops allocate only the reads *)
  let probes =
    Array.init points (fun _ ->
        let key = S.V_int (Imdb_util.Rng.int rng keys) in
        (key, stamps.(Imdb_util.Rng.int rng (writes * 4 / 5))))
  in
  let words_per_read f =
    let w0 = Gc.minor_words () in
    Array.iter f probes;
    (Gc.minor_words () -. w0) /. float_of_int points
  in
  (* printed only: wall time does not reproduce *)
  let best_us_per_read f =
    let best = ref infinity in
    for _ = 1 to 5 do
      best := Float.min !best (fst (Harness.time_it (fun () -> Array.iter f probes)))
    done;
    !best *. 1e6 /. float_of_int points
  in
  let asof_read (key, ts) =
    Db.as_of db ts (fun txn -> ignore (Db.get_row db txn ~table:"t" ~key))
  in
  let get_read (key, _) = Db.exec db (fun txn -> ignore (Db.get_row db txn ~table:"t" ~key)) in
  let tsb0 = M.get m M.asof_pages in
  let asof = words_per_read asof_read in
  let tsb_hits = M.get m M.asof_pages - tsb0 in
  let get = words_per_read get_read in
  let asof_us = best_us_per_read asof_read and get_us = best_us_per_read get_read in
  let words_per_txn txns f =
    let w0 = Gc.minor_words () in
    Array.iter
      (fun x ->
        Imdb_clock.Clock.advance clock 20L;
        let txn = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
        f txn x;
        ignore (Db.commit db txn))
      txns;
    (Gc.minor_words () -. w0) /. float_of_int (Array.length txns)
  in
  let empty = words_per_txn (Array.make points ()) (fun _ () -> ()) in
  Db.create_table db ~name:"c" ~mode:Db.Conventional ~schema;
  let upsert txn r = Db.upsert_row db txn ~table:"c" r in
  ignore (words_per_txn (Array.init keys (fun k -> row k "warm")) upsert);
  let conv =
    words_per_txn
      (Array.init points (fun i ->
           row (Imdb_util.Rng.int rng keys) (Printf.sprintf "%040d" i)))
      upsert
  in
  Db.close db;
  Harness.print_table ~title:"hotpath: wall time per read (best of 5 passes)"
    ~header:[ "read"; "us/op" ]
    [ [ "AS OF point"; Fmt.str "%.2f" asof_us ]; [ "current get"; Fmt.str "%.2f" get_us ] ];
  let words f = int_of_float (Float.round f) in
  ( [
      ("commits", writes);
      ("time_splits", time_splits);
      ("asof_points", points);
      ("tsb_hits", tsb_hits);
    ],
    [
      ("asof_point_words", words asof);
      ("get_words", words get);
      ("time_split_words", words per_split);
      ("empty_txn_words", words empty);
      ("commit_words", words mean_other);
      ("conv_commit_words", words conv);
    ] )

let run ~scale =
  let evict_s, evict_counters = evict_phase ~scale in
  let lookup name = List.assoc name evict_counters in
  let ratio a b = if b = 0 then "n/a" else Fmt.str "%.2f" (float_of_int a /. float_of_int b) in
  Harness.print_table ~title:"hotpath: eviction-heavy (16-frame pool, 512B pages)"
    ~header:[ "metric"; "value" ]
    ([ [ "wall ms"; Harness.ms evict_s ] ]
    @ List.map (fun (k, v) -> [ k; string_of_int v ]) evict_counters
    @ [
        [ "sweeps/eviction"; ratio (lookup "clock_sweeps") (lookup "evictions") ];
        [
          "keydir hit rate";
          ratio (lookup "keydir_hits")
            (lookup "keydir_hits" + lookup "keydir_misses");
        ];
      ]);
  let s, txns, flushes, batches, batched = commit_phase ~scale in
  Harness.print_table ~title:"hotpath: commit-heavy (file-backed log)"
    ~header:[ "wall ms"; "log syncs"; "commits/sync"; "avg batch" ]
    [
      [ Harness.ms s; string_of_int flushes; ratio txns flushes; ratio batched batches ];
    ];
  let alloc_work, alloc = alloc_phase () in
  Harness.print_table ~title:"hotpath: minor words per operation (4 KiB pages)"
    ~header:[ "metric"; "value" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) (alloc_work @ alloc));
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"hotpath"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ("evict", Harness.json_of_counters evict_counters);
         ( "commit",
           J.List
             [
               J.Obj
                 [
                   ("txns", J.Int txns);
                   ("log_flushes", J.Int flushes);
                   ("batches", J.Int batches);
                   ("batched_commits", J.Int batched);
                 ];
             ] );
         ("alloc_work", Harness.json_of_counters alloc_work);
         ("alloc", Harness.json_of_counters alloc);
       ])

let () =
  Harness.register ~name:"hotpath"
    ~doc:"CLOCK eviction, keydir cache, commit flush & allocation hot paths" run
