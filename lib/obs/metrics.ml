(* Per-engine metrics registry.

   Names are interned once, process-wide, into dense integer handles (one
   id space each for counters, gauges and histograms).  A registry holds,
   per id space, an array of cells indexed by handle: [int Atomic.t] for
   counters and gauges, and for histograms a record of an atomic sum, max
   and power-of-two buckets.  Recording through a handle is an array load
   and an atomic add or two: no mutex, no hashing, no allocation.  The
   [null] registry short-circuits on [on] before the array load.

   Presence: a slot holds the shared [absent] sentinel until its cell is
   first ensured or recorded, and only present cells appear in readings
   and expositions.  Creating a cell (and [reset]) takes the registry's
   mutex and publishes a fresh copy of the array, so a published array is
   never mutated and a writer racing with [reset] lands in the old cells.

   Percentile estimation walks cumulative bucket counts, so for a given
   observation multiset the result is a pure function — deterministic
   under the logical clock. *)

type counter = int
type gauge = int
type histogram = int

(* --- interning ----------------------------------------------------- *)

type space = { ids : (string, int) Hashtbl.t; mutable names : string array }

let new_space () = { ids = Hashtbl.create 64; names = [||] }
let counter_space = new_space ()
let gauge_space = new_space ()
let hist_space = new_space ()
let intern_lock = Mutex.create ()

let intern sp name =
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt sp.ids name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length sp.ids in
          Hashtbl.add sp.ids name id;
          sp.names <- Array.append sp.names [| name |];
          id)

let counter_of = intern counter_space
let gauge_of = intern gauge_space
let histogram_of = intern hist_space
let find sp name = Mutex.protect intern_lock (fun () -> Hashtbl.find_opt sp.ids name)
let names sp = Mutex.protect intern_lock (fun () -> sp.names)

(* --- registry ------------------------------------------------------ *)

(* The count is the sum of the buckets, so an observation is two atomic
   adds (its bucket and the sum) plus a load of the max. *)
type hist = {
  hc_sum : int Atomic.t;
  hc_max : int Atomic.t;
  buckets : int Atomic.t array;
}

(* Upper bounds 1, 2, 4, ..., 2^30, plus one overflow bucket. *)
let bounds = Array.init 31 (fun i -> 1 lsl i)
let n_buckets = Array.length bounds + 1
let absent = Atomic.make 0
let absent_hist = { hc_sum = absent; hc_max = absent; buckets = [||] }

let new_hist () =
  {
    hc_sum = Atomic.make 0;
    hc_max = Atomic.make 0;
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
  }

type t = {
  on : bool;
  lock : Mutex.t;
  counters : int Atomic.t array Atomic.t;
  gauges : int Atomic.t array Atomic.t;
  hists : hist array Atomic.t;
}

let make on =
  {
    on;
    lock = Mutex.create ();
    counters = Atomic.make [||];
    gauges = Atomic.make [||];
    hists = Atomic.make [||];
  }

let create () = make true
let null = make false
let enabled t = t.on

let reset t =
  Mutex.protect t.lock (fun () ->
      Atomic.set t.counters [||];
      Atomic.set t.gauges [||];
      Atomic.set t.hists [||])

(* The cell for [id] in [cells], created on first use: under the
   registry's lock, a copy of the array (grown to cover [id]) with the
   new cell is published in place of the old. *)
let slow_cell t cells ~absent ~fresh id =
  Mutex.protect t.lock (fun () ->
      let a = Atomic.get cells in
      if id < Array.length a && a.(id) != absent then a.(id)
      else begin
        let b = Array.make (max (Array.length a) (id + 1)) absent in
        Array.blit a 0 b 0 (Array.length a);
        let c = fresh () in
        b.(id) <- c;
        Atomic.set cells b;
        c
      end)

let cell t cells ~absent ~fresh id =
  let a = Atomic.get cells in
  if id < Array.length a then
    let c = Array.unsafe_get a id in
    if c != absent then c else slow_cell t cells ~absent ~fresh id
  else slow_cell t cells ~absent ~fresh id

let fresh_int () = Atomic.make 0
let counter_cell t id = cell t t.counters ~absent ~fresh:fresh_int id
let gauge_cell t id = cell t t.gauges ~absent ~fresh:fresh_int id
let hist_cell t id = cell t t.hists ~absent:absent_hist ~fresh:new_hist id

(* Present cells of one id space, paired with their names. *)
let present cells ~absent sp =
  let a = Atomic.get cells in
  let names = names sp in
  let acc = ref [] in
  Array.iteri (fun id c -> if c != absent then acc := (names.(id), c) :: !acc) a;
  List.sort (fun (x, _) (y, _) -> compare x y) !acc

let lookup cells ~absent sp name =
  match find sp name with
  | None -> None
  | Some id ->
      let a = Atomic.get cells in
      if id < Array.length a && a.(id) != absent then Some a.(id) else None

(* --- counters ------------------------------------------------------ *)

let incr t c = if t.on then Atomic.incr (counter_cell t c)
let add t c n = if t.on then ignore (Atomic.fetch_and_add (counter_cell t c) n)
let ensure_counter t c = if t.on then ignore (counter_cell t c)

let get t name =
  match lookup t.counters ~absent counter_space name with Some c -> Atomic.get c | None -> 0

(* --- gauges -------------------------------------------------------- *)

let set_gauge t g v = if t.on then Atomic.set (gauge_cell t g) v

let gauge t name =
  match lookup t.gauges ~absent gauge_space name with Some c -> Atomic.get c | None -> 0

(* --- histograms ---------------------------------------------------- *)

(* The least i with v <= 2^i: the bit length of v - 1. *)
let rec bit_length n acc = if n = 0 then acc else bit_length (n lsr 1) (acc + 1)
let bucket_of v = if v <= 1 then 0 else min (Array.length bounds) (bit_length (v - 1) 0)

let rec raise_max a v =
  let m = Atomic.get a in
  if v > m && not (Atomic.compare_and_set a m v) then raise_max a v

let observe t h v =
  if t.on then begin
    let v = max 0 v in
    let h = hist_cell t h in
    ignore (Atomic.fetch_and_add h.hc_sum v);
    raise_max h.hc_max v;
    Atomic.incr h.buckets.(bucket_of v)
  end

let ensure_histogram t h = if t.on then ignore (hist_cell t h)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
}

(* A plain copy of one histogram's cells, read one atomic at a time. *)
type reading = { r_count : int; r_sum : int; r_max : int; r_buckets : int array }

let read h =
  let r_buckets = Array.map Atomic.get h.buckets in
  {
    r_count = Array.fold_left ( + ) 0 r_buckets;
    r_sum = Atomic.get h.hc_sum;
    r_max = Atomic.get h.hc_max;
    r_buckets;
  }

let percentile r q =
  if r.r_count = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int r.r_count)) in
    let rank = max 1 (min rank r.r_count) in
    let rec go i cum =
      let cum = cum + r.r_buckets.(i) in
      if cum >= rank then
        if i < Array.length bounds then min bounds.(i) r.r_max else r.r_max
      else go (i + 1) cum
    in
    go 0 0
  end

let summarize h =
  let r = read h in
  {
    h_count = r.r_count;
    h_sum = r.r_sum;
    h_max = r.r_max;
    h_p50 = percentile r 0.50;
    h_p90 = percentile r 0.90;
    h_p99 = percentile r 0.99;
  }

let histogram t name =
  Option.map summarize (lookup t.hists ~absent:absent_hist hist_space name)

let histograms t =
  List.map (fun (k, h) -> (k, summarize h)) (present t.hists ~absent:absent_hist hist_space)

let percentiles t name qs =
  match lookup t.hists ~absent:absent_hist hist_space name with
  | None -> List.map (fun _ -> 0) qs
  | Some h ->
      let r = read h in
      List.map (fun q -> percentile r q) qs

(* --- snapshots ----------------------------------------------------- *)

type snapshot = (string * int) list

let int_cells cells sp = List.map (fun (k, c) -> (k, Atomic.get c)) (present cells ~absent sp)
let snapshot t : snapshot = int_cells t.counters counter_space

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

let hist_json (k, s) =
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

let int_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("counters", int_obj (snapshot t));
      ("gauges", int_obj (int_cells t.gauges gauge_space));
      ("histograms", Json.Obj (List.map hist_json (histograms t)));
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
  let b = Buffer.create 1024 in
  let scalar kind (k, v) =
    let n = prom_name k in
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n%s %d\n" n kind n v)
  in
  List.iter (scalar "counter") (snapshot t);
  List.iter (scalar "gauge") (int_cells t.gauges gauge_space);
  List.iter
    (fun (k, s) ->
      let n = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string b (Printf.sprintf "%s{quantile=\"%s\"} %d\n" n q v))
        [ ("0.5", s.h_p50); ("0.9", s.h_p90); ("0.99", s.h_p99) ];
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n s.h_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.h_count))
    (histograms t);
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
