(* compress: delta-compressed history pages.

   A moving-objects history is built under a fixed seed and logical
   clock, then probed with full-table AS OF scans at several depths into
   history.

   The claim under test: the bytes logged for history images at time
   splits ([hist.bytes_written], the permanent footprint of versioned
   storage) are >= 30% below what the plain [P_history] format would
   log for the same splits.  That plain-equivalent footprint comes from
   the same run's counters, exactly: each history page would have been
   logged at its raw size ([compress.raw_bytes] in place of
   [hist.bytes_written]).  Compression never changes the page graph,
   so the AS OF rows and work counters ([asof.pages], [asof.versions])
   are pinned by the baseline as they are.

   Every emitted quantity is deterministic: byte counts are fixed by the
   workload and the codec, work counters by the access path.  Wall time
   (including decode cost) is printed for the operator but never written
   to the JSON. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module Driver = Imdb_workload.Driver
module Mo = Imdb_workload.Moving_objects

let depths = List.init 10 (fun i -> 10 * (i + 1)) (* 10%, ..., 100% *)

type series = {
  c_rows : int;
  c_pages : int;
  c_versions : int;
  c_splits : int;
  c_hist_bytes : int; (* one compressed image per time split *)
  c_raw_bytes : int;
  c_elapsed : float; (* printed only, never emitted *)
}

let run_once ~inserts ~total =
  let config =
    { E.default_config with E.tsb_enabled = false; E.page_size = 4096; pool_capacity = 48 }
  in
  let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
  let events = Mo.generate ~seed:7 ~inserts ~total () in
  let result = Driver.run_events ~clock db ~table:"MovingObjects" events in
  let n = List.length result.Driver.rr_commit_ts in
  let probes =
    List.map
      (fun pc ->
        List.nth result.Driver.rr_commit_ts (min (n - 1) (pc * n / 100)))
      depths
  in
  let m = Db.metrics db in
  let splits = M.get m M.time_splits in
  let hist_bytes = M.get m M.hist_bytes_written in
  let raw_bytes = M.get m M.compress_raw_bytes in
  Imdb_buffer.Buffer_pool.flush_all (Db.engine db).E.pool;
  let before = M.snapshot m in
  let rows = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ts ->
      Db.as_of db ts (fun txn ->
          Db.scan db txn ~table:"MovingObjects" (fun _ _ -> incr rows)))
    probes;
  let elapsed = Unix.gettimeofday () -. t0 in
  let d = M.diff ~before ~after:(M.snapshot m) in
  let get name = Option.value ~default:0 (List.assoc_opt name d) in
  let s =
    {
      c_rows = !rows;
      c_pages = get M.asof_pages;
      c_versions = get M.asof_versions;
      c_splits = splits;
      c_hist_bytes = hist_bytes;
      c_raw_bytes = raw_bytes;
      c_elapsed = elapsed;
    }
  in
  Db.close db;
  s

let compress ~scale =
  let total = Harness.scaled ~scale 36000 in
  let inserts = Harness.scaled ~scale 500 in
  let s = run_once ~inserts ~total in
  let plain_bytes = s.c_raw_bytes in
  let reduction_pct =
    if plain_bytes = 0 then 0 else 100 * (plain_bytes - s.c_hist_bytes) / plain_bytes
  in
  if reduction_pct < 30 then
    failwith
      (Printf.sprintf
         "compress: history-byte reduction %d%% is below the 30%% floor"
         reduction_pct);
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"compress"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ("txns", J.Int total);
         ( "series",
           J.List
             [
               J.Obj
                 [
                   ("compression", J.Bool true);
                   ("rows", J.Int s.c_rows);
                   ("pages", J.Int s.c_pages);
                   ("versions", J.Int s.c_versions);
                   ("time_splits", J.Int s.c_splits);
                   ("hist_bytes", J.Int s.c_hist_bytes);
                   ("raw_bytes", J.Int s.c_raw_bytes);
                 ];
             ] );
         ("reduction_pct", J.Int reduction_pct);
       ]);
  Harness.print_table
    ~title:
      (Printf.sprintf
         "compress: history-image bytes at time splits, %d txns, AS OF \
          probes at %d depths"
         total (List.length depths))
    ~header:
      [ "ms"; "rows"; "pages"; "versions"; "splits"; "hist_bytes" ]
    [
      [
        Harness.ms s.c_elapsed;
        string_of_int s.c_rows;
        string_of_int s.c_pages;
        string_of_int s.c_versions;
        string_of_int s.c_splits;
        string_of_int s.c_hist_bytes;
      ];
    ];
  Fmt.pr "history bytes: %d plain-equivalent -> %d delta (%d%% reduction)@."
    plain_bytes s.c_hist_bytes reduction_pct

let run = compress

let () =
  Harness.register ~name:"compress"
    ~doc:"delta-compressed history pages: footprint vs the plain format" compress
