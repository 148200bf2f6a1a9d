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

   BENCH_hotpath.json carries only the deterministic logical counters
   (never wall time), so scripts/bench_check.sh can hold them to their
   baselines exactly. *)

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
       ])

let () =
  Harness.register ~name:"hotpath"
    ~doc:"CLOCK eviction, keydir cache & commit flush hot paths" run
