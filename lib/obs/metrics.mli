(** Per-engine observability registry.

    Every engine owns its own registry, so two [Db.t] instances in one
    process never share (or clobber) each other's counters.

    Writers record through {e handles}: a metric name is interned once,
    process-wide, into a dense handle ([counter_of], [gauge_of],
    [histogram_of]; the same name always yields the same handle), and
    each registry keeps one atomic cell per handle.  Recording is an
    array load and an atomic add — no lock, no hashing, no allocation —
    and on [null] it is one branch.  Readers name metrics by string
    ([get], [gauge], [histogram], [snapshot], the expositions).

    A metric appears in readings and expositions only once it has been
    ensured or recorded in this registry.  Each cell is read atomically,
    but a reading of several cells is not a consistent cut: a snapshot
    taken while other domains record may see one counter before and the
    next after the same operation, and a histogram's sum ahead of its
    buckets.  Read at quiescent points when the figures must agree.

    Counters and most histograms record logical work (I/O operations,
    bytes, versions, logical-clock ticks), so a seeded bench run under
    the logical clock reproduces them bit for bit.  The exceptions are
    the hand-timed wall-clock histograms [compress.decode_ns] and
    [lock.wait_us], and the tracer's per-span-kind duration histograms.
    See DESIGN.md "Deterministic observability". *)

type t

val create : unit -> t

val null : t
(** A shared disabled registry: every recording operation is a no-op and
    every read returns zero/empty.  Components not yet attached to an
    engine default to it. *)

val enabled : t -> bool

val reset : t -> unit
(** Zero all counters, gauges and histograms of [t] only (they leave the
    exposition until recorded again).  A write racing with [reset] may be
    lost. *)

(** {1 Handles} *)

type counter
type gauge
type histogram

val counter_of : string -> counter
val gauge_of : string -> gauge

val histogram_of : string -> histogram
(** Intern a name (taking a process-wide lock); call once, at module
    initialisation or when a component is built, not per record. *)

(** {1 Counters} — named, monotonic. *)

val incr : t -> counter -> unit

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to counter [c]. *)

val get : t -> string -> int

val ensure_counter : t -> counter -> unit
(** Register the counter (at zero) so it appears in the exposition even
    before the first increment. *)

(** {1 Gauges} — last-write-wins instantaneous values. *)

val set_gauge : t -> gauge -> int -> unit
val gauge : t -> string -> int

(** {1 Histograms} — fixed power-of-two buckets over non-negative ints.

    Percentiles are estimated from cumulative bucket counts and rounded
    up to the bucket's upper bound (clamped to the observed max), which
    makes them deterministic functions of the observation multiset. *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
}

val observe : t -> histogram -> int -> unit
(** Record one observation; negative values clamp to 0. *)

val ensure_histogram : t -> histogram -> unit
(** Register the histogram (empty) so it appears in the exposition even
    before the first observation. *)

val histogram : t -> string -> hist_summary option

val histograms : t -> (string * hist_summary) list
(** All registered histograms, sorted by name. *)

val percentiles : t -> string -> float list -> int list
(** [percentiles t name qs] estimates each quantile in [qs] (e.g.
    [[0.5; 0.9; 0.99]]) from histogram [name]'s bucket counts, using the
    same rank-in-cumulative-buckets rule as [hist_summary].  An unknown
    or empty histogram yields all zeros. *)

(** {1 Snapshots} — counters only, for bracketing a workload. *)

type snapshot = (string * int) list
(** Sorted by name. *)

val snapshot : t -> snapshot
val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name [after - before], dropping zero deltas. *)

(** {1 JSON exposition} — the stable schema consumed by
    [imdb stats --json], the SQL [METRICS] pragma and the bench harness:

    {v
    { "schema_version": 13,
      "counters":   { "<name>": <int>, ... },              (sorted)
      "gauges":     { "<name>": <int>, ... },              (sorted)
      "histograms": { "<name>": { "count": n, "sum": n, "max": n,
                                  "p50": n, "p90": n, "p99": n }, ... } }
    v} *)

val schema_version : int
val to_json : t -> Json.t
val to_json_string : t -> string

val to_prometheus : t -> string
(** Prometheus text exposition (version 0.0.4): every counter and gauge
    as its own metric, every histogram as a [summary] with 0.5/0.9/0.99
    quantiles plus [_sum]/[_count].  Names are mangled
    [imdb_<name-with-dots-as-underscores>]; output is sorted, so for a
    given registry state the text is byte-stable. *)

(** {1 Canonical metric names} — producers and consumers share these so
    they cannot drift apart. *)

val disk_reads : string
val disk_writes : string
val log_appends : string
val log_bytes : string
val log_flushes : string
val buf_hits : string
val buf_misses : string
val buf_evictions : string
val buf_clock_sweeps : string

val keydir_hits : string
(** Routing (internal B-tree node) searches served by the node's cached
    key directory.  Leaf searches are linear scans and count nowhere. *)

val keydir_misses : string
(** Routing searches that found no directory and built one: the first
    search of an internal node after it was read in or dirtied. *)

val pages_allocated : string
val stamps_applied : string
val ptt_inserts : string
val ptt_deletes : string
val ptt_lookups : string
val vtt_hits : string
val time_splits : string
val key_splits : string
val split_copied : string
val asof_pages : string
val asof_versions : string
val histcache_hits : string
val histcache_misses : string
val histcache_evictions : string
(** The engine's decoded history-page memo ([Engine.history_page]):
    reads served without touching the buffer pool, reads that pinned the
    page, and FIFO evictions. *)

val hist_bytes_written : string
(** Bytes logged for history page images at time splits (the permanent
    storage cost of a split; every stored image is compressed, one per
    [split.time]). *)

val compress_raw_bytes : string
(** Bytes the same history images take uncompressed. *)

val compress_ratio : string
(** Gauge: cumulative [hist.bytes_written] / [compress.raw_bytes]
    percentage. *)

val txn_commits : string
val txn_aborts : string
val btree_node_splits : string
val checkpoints : string
val recovery_redo : string
val recovery_undo : string

val recovery_torn_pages : string
(** Pages whose checksum failed after a crash (torn writes) and were
    rebuilt wholesale from the log by recovery. *)

val trace_spans : string
(** Events recorded into the tracer's completed ring (spans + instants). *)

val trace_drops : string
(** Spans evicted from the tracer's completed ring when it overflows. *)

val trace_slow_ops : string
(** Spans whose duration reached the tracer's [slow_threshold_us]. *)

val recovery_redo_lsn : string
(** Gauge: LSN of the last log record applied by recovery's redo pass —
    a live progress indicator while recovery runs, the final redo
    position afterwards. *)

val ingest_appends : string
(** Writes that became buffered messages instead of page descents. *)

val ingest_flushes : string
(** Buffer drains (fill-, descent- or read-triggered). *)

val ingest_flush_messages : string
(** Messages applied to data pages by flushes. *)

val ingest_flush_pages : string
(** Data-page visits made by flushes (one visit applies a whole run). *)

val ingest_deferred_splits : string
(** Time splits performed during a flush at a message's recorded clock. *)

val lock_acquires : string
(** Lock requests granted (fresh grants, upgrades and re-requests). *)

val lock_conflicts : string
(** Requests that found an incompatible holder (timeout 0 or parked). *)

val lock_deadlocks : string
(** Requests refused because granting the wait would close a cycle. *)

val lock_timeouts : string
(** Parked waits abandoned at the deadline (the waiter is the victim).
    A timeout-0 conflict counts in [lock_conflicts] only. *)

val session_rows_read : string
(** Rows returned to readers, folded in per transaction at commit/abort
    from the per-txn tally (see Engine session stats). *)

val session_rows_written : string
(** Rows inserted/updated/deleted, folded in per transaction at
    commit/abort from the per-txn tally. *)

val monitor_samples : string
(** Samples captured into the continuous monitor's ring. *)

val monitor_dropped : string
(** Monitor samples evicted from the ring once it reached capacity. *)

(** Histogram names. *)

val h_log_record_bytes : string
val h_log_flush_bytes : string
val h_commit_writes : string
val h_group_commit_batch : string
(* [h_commit_latency_ms] records clock ticks between a writer's snapshot
   and its commit timestamp — logical-clock ticks, not wall time. *)
val h_commit_latency_ms : string

val h_compress_decode_ns : string
(** Wall-clock nanoseconds per history-page decode (hand-timed). *)

val h_ptt_gc_batch : string
val h_split_current_live : string
val h_split_history_live : string
val h_page_utilization_pct : string
val h_ingest_flush_run : string

val h_lock_wait_us : string
(** Wall-clock microseconds a blocking lock wait parked before grant,
    deadline or deadlock.  Never fed by a timeout-0 conflict. *)

val span_hist : string -> string
(** [span_hist name] is the duration histogram ["span." ^ name ^ "_us"]
    the tracer feeds for each span kind. *)
