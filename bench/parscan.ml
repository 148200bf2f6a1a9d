(* parscan: full-table AS OF scans over a history larger than the pool.

   A moving-objects history is built (seeded, logical clock), flushed to
   stable storage, and then probed with full-table AS OF scans at 20
   depths into history, through the time-split chain (no TSB) and a
   48-frame buffer pool that holds only a fraction of the history.  The
   sweep runs twice: cold (empty history memo) and warm (the memo filled
   by the first pass).  History pages never change once written, so
   [Engine.history_page] serves repeat visits from its decoded-image memo
   instead of re-reading pages the small pool has evicted.

   The JSON carries only deterministic quantities: rows, pages and
   versions visited, and the memo's hit/miss/eviction split, per pass.
   Both passes visit identical pages and versions; only where the pages
   come from changes.  Wall time is printed for the operator but never
   written to the JSON. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module Driver = Imdb_workload.Driver
module Mo = Imdb_workload.Moving_objects

let depths = List.init 20 (fun i -> 5 * (i + 1))  (* 5%, 10%, ..., 100% *)
let pool_capacity = 48

let load ~inserts ~total =
  let config =
    {
      E.default_config with
      E.tsb_enabled = false;
      E.page_size = 4096;
      pool_capacity;
      histcache_capacity = 8192;
    }
  in
  let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
  let events = Mo.generate ~seed:7 ~inserts ~total () in
  let result = Driver.run_events ~clock db ~table:"MovingObjects" events in
  let n = List.length result.Driver.rr_commit_ts in
  let probes =
    List.map (fun pc -> List.nth result.Driver.rr_commit_ts (min (n - 1) (pc * n / 100))) depths
  in
  (db, probes)

type pass = {
  p_name : string;
  p_rows : int;
  p_pages : int;
  p_versions : int;
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_elapsed : float;  (* printed only, never emitted *)
}

let run_pass db probes name =
  let m = Db.metrics db in
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
  {
    p_name = name;
    p_rows = !rows;
    p_pages = get M.asof_pages;
    p_versions = get M.asof_versions;
    p_hits = get M.histcache_hits;
    p_misses = get M.histcache_misses;
    p_evictions = get M.histcache_evictions;
    p_elapsed = elapsed;
  }

let parscan ~scale =
  let total = Harness.scaled ~scale 36000 in
  let inserts = Harness.scaled ~scale 500 in
  let db, probes = load ~inserts ~total in
  Imdb_buffer.Buffer_pool.flush_all (Db.engine db).E.pool;
  let cold = run_pass db probes "cold" in
  let warm = run_pass db probes "warm" in
  let passes = [ cold; warm ] in
  Db.close db;
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"parscan"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ("txns", J.Int total);
         ("pool_frames", J.Int pool_capacity);
         ( "passes",
           J.List
             (List.map
                (fun p ->
                  J.Obj
                    [
                      ("pass", J.String p.p_name);
                      ("rows", J.Int p.p_rows);
                      ("pages", J.Int p.p_pages);
                      ("versions", J.Int p.p_versions);
                      ("memo_hits", J.Int p.p_hits);
                      ("memo_misses", J.Int p.p_misses);
                      ("memo_evictions", J.Int p.p_evictions);
                    ])
                passes) );
       ]);
  Harness.print_table
    ~title:
      (Printf.sprintf
         "parscan: full-scan AS OF at %d depths, %d txns, %d-frame pool, chain \
          traversal (no TSB)"
         (List.length depths) total pool_capacity)
    ~header:[ "pass"; "ms"; "rows"; "pages"; "versions"; "hits"; "misses"; "evict" ]
    (List.map
       (fun p ->
         [
           p.p_name;
           Harness.ms p.p_elapsed;
           string_of_int p.p_rows;
           string_of_int p.p_pages;
           string_of_int p.p_versions;
           string_of_int p.p_hits;
           string_of_int p.p_misses;
           string_of_int p.p_evictions;
         ])
       passes)

let run = parscan

let () =
  Harness.register ~name:"parscan"
    ~doc:"AS OF scans over a history larger than the pool: the history-page memo"
    parscan
