(* Per-engine metrics registry.

   Counters and histograms are plain hashtables guarded by an [enabled]
   flag so the shared [null] registry costs one branch per record.  The
   histogram uses fixed power-of-two bucket bounds; percentile estimation
   walks cumulative bucket counts, so for a given observation multiset the
   result is a pure function — deterministic under the logical clock.

   The registry is domain-safe: every mutation and read of the hashtables
   runs under one internal mutex, because sessions on several domains (and
   the monitor's sampler thread) record and read concurrently.  The [null] registry short-circuits on [on]
   before touching the lock, so disabled recording stays one branch. *)

type hist = {
  mutable hc_count : int;
  mutable hc_sum : int;
  mutable hc_max : int;
  buckets : int array;
}

type t = {
  on : bool;
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let make on =
  {
    on;
    lock = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
  }

let create () = make true
let null = make false
let enabled t = t.on

let locked t f = Mutex.protect t.lock f

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.counters;
      Hashtbl.reset t.gauges;
      Hashtbl.reset t.hists)

(* --- counters ------------------------------------------------------ *)

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

let incr ?(by = 1) t name =
  if t.on then
    locked t (fun () ->
        let r = cell t.counters name in
        r := !r + by)

let get t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let ensure_counter t name = if t.on then locked t (fun () -> ignore (cell t.counters name))

(* --- gauges -------------------------------------------------------- *)

let set_gauge t name v = if t.on then locked t (fun () -> (cell t.gauges name) := v)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0)

(* --- histograms ---------------------------------------------------- *)

(* Upper bounds 1, 2, 4, ..., 2^30, plus one overflow bucket. *)
let bounds = Array.init 31 (fun i -> 1 lsl i)
let n_buckets = Array.length bounds + 1

let bucket_of v =
  let rec go i =
    if i >= Array.length bounds then Array.length bounds
    else if v <= bounds.(i) then i
    else go (i + 1)
  in
  if v <= 1 then 0 else go 1

let hist_cell t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = { hc_count = 0; hc_sum = 0; hc_max = 0; buckets = Array.make n_buckets 0 } in
      Hashtbl.add t.hists name h;
      h

let observe t name v =
  if t.on then
    locked t (fun () ->
        let v = max 0 v in
        let h = hist_cell t name in
        h.hc_count <- h.hc_count + 1;
        h.hc_sum <- h.hc_sum + v;
        if v > h.hc_max then h.hc_max <- v;
        let i = bucket_of v in
        h.buckets.(i) <- h.buckets.(i) + 1)

let ensure_histogram t name = if t.on then locked t (fun () -> ignore (hist_cell t name))

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
}

let percentile h q =
  if h.hc_count = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int h.hc_count)) in
    let rank = max 1 (min rank h.hc_count) in
    let rec go i cum =
      let cum = cum + h.buckets.(i) in
      if cum >= rank then
        if i < Array.length bounds then min bounds.(i) h.hc_max else h.hc_max
      else go (i + 1) cum
    in
    go 0 0
  end

let summarize h =
  {
    h_count = h.hc_count;
    h_sum = h.hc_sum;
    h_max = h.hc_max;
    h_p50 = percentile h 0.50;
    h_p90 = percentile h 0.90;
    h_p99 = percentile h 0.99;
  }

let histogram t name =
  locked t (fun () -> Option.map summarize (Hashtbl.find_opt t.hists name))

let histograms t =
  locked t (fun () ->
      Hashtbl.fold (fun k h acc -> (k, summarize h) :: acc) t.hists [])
  |> List.sort compare

let percentiles t name qs =
  locked t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | None -> List.map (fun _ -> 0) qs
      | Some h -> List.map (fun q -> percentile h q) qs)

(* --- snapshots ----------------------------------------------------- *)

type snapshot = (string * int) list

let snapshot t : snapshot =
  locked t (fun () -> Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [])
  |> List.sort compare

let diff ~(before : snapshot) ~(after : snapshot) : snapshot =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some d -> Hashtbl.replace tbl k (d + v)
      | None -> Hashtbl.replace tbl k v)
    after;
  Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) tbl []
  |> List.sort compare

(* --- JSON exposition ----------------------------------------------- *)

(* v2: hot-path overhaul counters (buffer.clock_sweeps, the keydir
   hit/miss pair) and the txn.group_commit_batch histogram.
   v3: parallel read path — the histcache hit/miss/eviction counters, a
   fallback counter and a fan-out histogram (the last two gone in v11).
   v4: history compression — the compress.* counters/gauge, the
   hist.bytes_written counter, the compress.decode_ns histogram — and
   the ptt.gc_batch histogram for batched checkpoint-time GC.
   v5: structured tracing — the trace.spans/trace.dropped/trace.slow_ops
   counters, the recovery.redo_lsn progress gauge, and per-span-kind
   "span.<name>_us" duration histograms (present only when tracing is
   enabled; see Tracer).

   v6 adds recovery.torn_pages (pages whose checksum failed after a crash
   and were rebuilt wholesale from the log).

   v7: write-optimized ingestion — the ingest.* counters (appends,
   flushes, flushed messages / page visits / deferred splits) and the
   ingest.flush_run histogram (messages applied per data-page visit).

   v8: multi-core transaction execution — the lock.* counters (acquires,
   conflicts, deadlocks, timeouts) and the lock.wait_us histogram
   (blocking-wait durations; empty on the fail-fast serial path).

   v9: live introspection — the session.* commit-time counters
   (rows_read, rows_written: per-txn tallies folded in at commit) and the
   monitor.* counters (samples, dropped) fed by the continuous monitor
   sampler when one is running.

   v10: the ingest.hint_key_splits counter is gone with the batch-hint
   key-split policy it counted (key splits follow utilization alone).

   v11: one temporal read path — the parallel scan's fallback counter
   and scan.fanout histogram are gone with it; the histcache
   hit/miss/eviction counters now count the engine's decoded
   history-page memo.

   v12: one stored history format — the compress.fallbacks counter is
   gone: every time split stores its history image compressed.

   v13: compress.pages and compress.written_bytes are gone — they always
   equalled split.time and hist.bytes_written, since every split stores
   one compressed image; compress.ratio is hist.bytes_written over
   compress.raw_bytes.  ptt.inserts counts checkpoint postings, no
   longer one per immortal commit. *)
let schema_version = 13

let sorted_int_obj tbl =
  Hashtbl.fold (fun k r acc -> (k, Json.Int !r) :: acc) tbl [] |> List.sort compare

let to_json t =
  locked t @@ fun () ->
  let hists =
    Hashtbl.fold
      (fun k h acc ->
        let s = summarize h in
        ( k,
          Json.Obj
            [
              ("count", Json.Int s.h_count);
              ("sum", Json.Int s.h_sum);
              ("max", Json.Int s.h_max);
              ("p50", Json.Int s.h_p50);
              ("p90", Json.Int s.h_p90);
              ("p99", Json.Int s.h_p99);
            ] )
        :: acc)
      t.hists []
    |> List.sort compare
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("counters", Json.Obj (sorted_int_obj t.counters));
      ("gauges", Json.Obj (sorted_int_obj t.gauges));
      ("histograms", Json.Obj hists);
    ]

let to_json_string t = Json.to_string (to_json t)

(* --- Prometheus text exposition ------------------------------------ *)

(* Metric names may only contain [a-zA-Z0-9_:]; ours use dots as the
   namespace separator, so mangle those (and any stray character) to
   underscores and prefix the exporter namespace. *)
let prom_name name =
  let mangled =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  "imdb_" ^ mangled

let to_prometheus t =
  locked t @@ fun () ->
  let b = Buffer.create 1024 in
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  List.iter
    (fun (k, r) ->
      let n = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n !r))
    (sorted t.counters);
  List.iter
    (fun (k, r) ->
      let n = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n !r))
    (sorted t.gauges);
  List.iter
    (fun (k, h) ->
      let n = prom_name k in
      let s = summarize h in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string b (Printf.sprintf "%s{quantile=\"%s\"} %d\n" n q v))
        [ ("0.5", s.h_p50); ("0.9", s.h_p90); ("0.99", s.h_p99) ];
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n s.h_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.h_count))
    (sorted t.hists);
  Buffer.contents b

(* --- canonical names ----------------------------------------------- *)

let disk_reads = "disk.reads"
let disk_writes = "disk.writes"
let log_appends = "log.appends"
let log_bytes = "log.bytes"
let log_flushes = "log.flushes"
let buf_hits = "buffer.hits"
let buf_misses = "buffer.misses"
let buf_evictions = "buffer.evictions"
let buf_clock_sweeps = "buffer.clock_sweeps"
(* routing-node searches: served by the cached directory / built one *)
let keydir_hits = "buffer.keydir_hits"
let keydir_misses = "buffer.keydir_misses"
let pages_allocated = "pages.allocated"
let stamps_applied = "tstamp.applied"
let ptt_inserts = "ptt.inserts"
let ptt_deletes = "ptt.deletes"
let ptt_lookups = "ptt.lookups"
let vtt_hits = "vtt.hits"
let time_splits = "split.time"
let key_splits = "split.key"
let split_copied = "split.copied"
let asof_pages = "asof.pages_visited"
let asof_versions = "asof.versions_visited"
let histcache_hits = "histcache.hits"
let histcache_misses = "histcache.misses"
let histcache_evictions = "histcache.evictions"
let hist_bytes_written = "hist.bytes_written"
let compress_raw_bytes = "compress.raw_bytes"
let compress_ratio = "compress.ratio"
let txn_commits = "txn.commits"
let txn_aborts = "txn.aborts"
let btree_node_splits = "btree.node_splits"
let checkpoints = "engine.checkpoints"
let recovery_redo = "recovery.redo_records"
let recovery_undo = "recovery.undo_records"
let recovery_torn_pages = "recovery.torn_pages"
let trace_spans = "trace.spans"
let trace_drops = "trace.dropped"
let trace_slow_ops = "trace.slow_ops"
let recovery_redo_lsn = "recovery.redo_lsn"
let ingest_appends = "ingest.appends"
let ingest_flushes = "ingest.flushes"
let ingest_flush_messages = "ingest.flush_messages"
let ingest_flush_pages = "ingest.flush_pages"
let ingest_deferred_splits = "ingest.deferred_splits"
let lock_acquires = "lock.acquires"
let lock_conflicts = "lock.conflicts"
let lock_deadlocks = "lock.deadlocks"
let lock_timeouts = "lock.timeouts"
let session_rows_read = "session.rows_read"
let session_rows_written = "session.rows_written"
let monitor_samples = "monitor.samples"
let monitor_dropped = "monitor.dropped"

let h_log_record_bytes = "log.record_bytes"
let h_log_flush_bytes = "log.flush_bytes"
let h_commit_writes = "txn.commit_writes"
let h_group_commit_batch = "txn.group_commit_batch"
let h_commit_latency_ms = "txn.commit_latency_ms"
let h_compress_decode_ns = "compress.decode_ns"
let h_ptt_gc_batch = "ptt.gc_batch"
let h_split_current_live = "split.current_live"
let h_split_history_live = "split.history_live"
let h_page_utilization_pct = "page.utilization_pct"
let h_ingest_flush_run = "ingest.flush_run"
let h_lock_wait_us = "lock.wait_us"
let span_hist name = "span." ^ name ^ "_us"
