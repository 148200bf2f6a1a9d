(** Engine state and primitives: device wiring, logging, page allocation,
    transaction registry, stamping triggers, checkpoints.

    Data operations live in {!Table}; begin/commit/abort in {!Txnmgr};
    crash recovery in {!Recovery}; the public facade in {!Db}. *)

type timestamping_mode =
  | Lazy_stamping  (** the paper's design: one PTT insert per commit *)
  | Eager_stamping  (** revisit + log every stamp before commit (baseline) *)

type config = {
  page_size : int;
  pool_capacity : int;  (** buffer-pool frames *)
  timestamping : timestamping_mode;
  key_split_threshold : float;  (** the paper's T (Section 3.3), default 0.7 *)
  auto_checkpoint_every : int;  (** commits between checkpoints; 0 = manual *)
  tsb_enabled : bool;  (** maintain the TSB index on time splits *)
  histcache_capacity : int;
      (** decoded history pages held by the memo {!history_page} serves
          (FIFO; never fewer than 64) *)
  trace_sampling : int;
      (** structured-tracing sampling rate.  [0] (the default) disables
          tracing entirely — every instrumentation site short-circuits on
          the shared {!Imdb_obs.Tracer.null}; [1] records every root span;
          [n > 1] records every n-th root span, children following their
          root so sampled traces are complete trees.  Spans of 10 ms or
          more also enter the retained slow-op ring (the
          {!Imdb_obs.Tracer.create} default threshold). *)
  ingest_buffer_rows : int;
      (** messages a table's [P_msg_buffer] page accumulates before a
          fill-triggered flush (the page's own capacity caps this
          regardless); see {!ingest_enabled} for which writes buffer *)
  lock_wait_timeout_ms : int;
      (** How long a conflicting lock request parks, in milliseconds,
          before the waiter is the timeout victim.  The session gate is
          released while parked, and wait-for-graph deadlock detection
          runs at edge insert.  [0] (the default) gives up at once
          without parking — correct for one session, where parking would
          self-deadlock.  Deadlock and timeout both surface as
          {!Deadlock_abort}. *)
  monitor_interval_ms : int;
      (** [0] (the default) disables the continuous monitor — every
          sampling site short-circuits on {!Imdb_obs.Monitor.null};
          [> 0] runs a background thread capturing a counter snapshot
          into a bounded ring every this many milliseconds.  The monitor
          only {e reads} the registry, so engine counters are identical
          either way (proved by the BENCH_obsov gate).  The ring holds
          600 samples. *)
  flight_recorder_dir : string option;
      (** when set, recovery-after-crash writes a post-mortem JSON
          report (monitor ring, slow ops, lock dump, session stats,
          metrics) into this directory; [None] (the default) never *)
}

val default_config : config

type isolation = Serializable | Snapshot_isolation | As_of of Imdb_clock.Timestamp.t

type txn_state = Running | Rolling_back | Finished

type txn = {
  tx_tid : Imdb_clock.Tid.t;
  tx_isolation : isolation;
  tx_snapshot : Imdb_clock.Timestamp.t;
  tx_session : int;
      (** owning session id; [0] = anonymous (plain [Db] calls) *)
  mutable tx_state : txn_state;
  mutable tx_begun : bool;
  mutable tx_last_lsn : int64;  (** head of the undo chain *)
  mutable tx_writes : (int * string) list;  (** (table_id, key), newest first *)
  tx_write_set : (int * string, unit) Hashtbl.t;
  mutable tx_commit_ts : Imdb_clock.Timestamp.t option;
  mutable tx_durable : bool;
      (** the commit record has been synced to the log device: set when
          [Txnmgr.commit]'s [Wal.flush] through the commit record
          returns, never before the sync *)
  mutable tx_rows_read : int;  (** rows delivered to this txn's reads *)
  mutable tx_rows_written : int;  (** write ops, including re-writes of a key *)
  mutable tx_lock_waits : int;  (** blocking lock waits that actually parked *)
  mutable tx_lock_wait_us : int;  (** wall µs spent parked on locks *)
}

exception Txn_finished
exception Read_only_txn
exception Deadlock_abort of Imdb_clock.Tid.t

type session_stats = {
  ss_id : int;
  mutable ss_commits : int;
  mutable ss_aborts : int;
  mutable ss_rows_read : int;
  mutable ss_rows_written : int;
  mutable ss_lock_waits : int;
  mutable ss_lock_wait_us : int;
  mutable ss_commit_latency_ticks : int;
      (** cumulative snapshot-to-commit clock ticks (the
          [txn.commit_latency_ms] unit) over persistent commits *)
  mutable ss_last_batch_pos : int;
      (** group-commit batch position of the newest commit: 1 = batch
          leader (its flush paid the sync), k > 1 = rode a shared sync *)
  mutable ss_max_batch_pos : int;
}
(** Cumulative per-session statistics, folded in from each finished
    transaction's tallies.  Gate-guarded — read via {!sessions_json} or
    under {!exclusively}. *)

type history_image = {
  hi_image : bytes;  (** decoded ([P_history]-format); never mutate it *)
  hi_dir : Imdb_version.Vpage.directory Lazy.t;
      (** the image's version directory, built the first time a scan or
          history walk forces it (gate-guarded, like the memo) *)
}
(** A history page as temporal reads see it.  For a memo entry the
    directory is built at most once and never invalidated: the image it
    indexes never changes. *)

type t = {
  disk : Imdb_storage.Disk.t;
  wal : Imdb_wal.Wal.t;
  pool : Imdb_buffer.Buffer_pool.t;
  gate : Imdb_util.Park.lock;
      (** the session gate, keyed by {!Imdb_util.Park.self} — see
          {!exclusively}; treat as private *)
  clock : Imdb_clock.Clock.t;
  locks : Imdb_lock.Lock_manager.t;
  stamper : Imdb_tstamp.Lazy_stamper.t;
  metrics : Imdb_obs.Metrics.t;  (** this engine's private registry *)
  tracer : Imdb_obs.Tracer.t;
      (** this engine's span tracer; {!Imdb_obs.Tracer.null} unless
          [config.trace_sampling > 0] *)
  config : config;
  mutable meta : Meta.t;
  mutable ptt : Imdb_tstamp.Ptt.t option;
  mutable catalog_tree : Imdb_btree.Btree.t option;
  tables : (int, Catalog.table_info) Hashtbl.t;
  table_ids : (string, int) Hashtbl.t;
  active : txn Imdb_clock.Tid.Table.t;
  mutable next_tid : Imdb_clock.Tid.t;
  mutable cur_txn : txn option;  (** logging context for undoable ops *)
  mutable commits_since_checkpoint : int;
  mutable in_recovery : bool;
  mutable after_ptt_post : unit -> unit;
      (** fault-injection point (torture harness): runs inside
          {!checkpoint} right after the PTT posting group is appended,
          before the checkpoint record; [ignore] by default *)
  hist_decoded : (int, history_image) Hashtbl.t;
      (** page id -> decoded image of a fully stamped history page and
          its directory once built, the memo {!history_page} serves
          (gate-guarded; history pages are immutable, so entries never go
          stale) *)
  hist_decoded_order : int Queue.t;  (** FIFO bound for [hist_decoded] *)
  ingest_bufs : (int, Ingest.buf) Hashtbl.t;
      (** table id -> volatile mirror of its message-buffer page *)
  mutable ingest_seq : int;  (** last message sequence number issued *)
  session_stats : (int, session_stats) Hashtbl.t;
      (** per-session cumulative statistics, keyed by session id *)
  monitor : Imdb_obs.Monitor.t;
      (** the continuous sampler; {!Imdb_obs.Monitor.null} unless
          [config.monitor_interval_ms > 0] *)
}

val vtt : t -> Imdb_tstamp.Vtt.t
val ptt_exn : t -> Imdb_tstamp.Ptt.t
val catalog_exn : t -> Imdb_btree.Btree.t

(** {1 The session gate}

    One engine, many sessions, any domains: every public operation runs
    exclusively under the gate, which keeps the engine's single-threaded
    interior (clock, VTT/stamper, catalog cache, [cur_txn]) safe without
    per-structure locks.  The gate ([gate]) is a {!Imdb_util.Park.lock},
    reentrant per session, and released ({!Imdb_util.Park.suspend}) only
    while a session parks on a lock conflict (so the holder can run) and
    across the commit-record fsync (so committers batch one sync). *)

val exclusively : t -> (unit -> 'a) -> 'a
(** Run [f] holding the session gate (reentrant). *)

type session = { s_engine : t; s_id : int }
(** A lightweight handle for one thread-of-control (typically one
    domain).  Sessions hold no mutable engine state — the gate does the
    synchronization — so any number may run concurrently; the id feeds
    observability.  See {!Db.Session} for the user-facing API. *)

val session : t -> session

(** {1 Ingest buffering} *)

val ingest_enabled : t -> Catalog.table_info -> bool
(** Buffered ingestion applies to immortal tables under lazy stamping;
    of their writers, only [Serializable] ones append messages
    ({!Table.write_version}).  Snapshot-isolation writers, eager
    stamping and conventional or snapshot tables take the per-row
    descent. *)

val ingest_buf : t -> Catalog.table_info -> Ingest.buf option
val next_ingest_seq : t -> int

(** {1 Logging} *)

val ensure_begun : t -> txn -> unit
(** Log the Begin record lazily, at the transaction's first update. *)

val exec_op :
  t -> Imdb_buffer.Buffer_pool.frame -> undoable:bool -> Imdb_wal.Log_record.page_op -> unit
(** Log [op] (undoable in the current transaction or redo-only), apply it
    to the frame, mark it dirty. *)

val log_applied : t -> Imdb_buffer.Buffer_pool.frame -> Imdb_wal.Log_record.page_op -> unit
(** Log [op] redo-only for a change the caller already applied to the
    frame, and mark the frame dirty at the record's LSN.  Used by batched
    buffer-flush application, where each insert must land on the page
    before the next can be planned. *)

val with_txn : t -> txn -> (unit -> 'a) -> 'a
(** Set the logging context for undoable ops inside [f]. *)

(** {1 Pages} *)

val update_meta : t -> (Meta.t -> unit) -> unit
val alloc_page : t -> ptype:Imdb_storage.Page.page_type -> level:int -> table_id:int -> int
val free_page : t -> int -> unit

val btree_io_for : t -> int -> Imdb_btree.Btree.io
val tsb_io : t -> int -> Imdb_tsb.Tsb.io

(** {1 Transactions} *)

val begin_txn : ?session:int -> t -> isolation:isolation -> txn
(** [session] tags the transaction with its owning session id for
    per-session statistics; defaults to 0 (anonymous). *)

val check_running : txn -> unit
val is_read_only : txn -> bool

val active_snapshots : t -> Imdb_clock.Timestamp.t list
(** Snapshot times of running snapshot/as-of transactions — the
    visibility horizon set for snapshot-table version GC. *)

val note_write : t -> txn -> table_id:int -> key:string -> unit
(** Record a write in the transaction (dedup'd); raises on AS OF txns. *)

val lock_resource :
  t -> txn -> Imdb_lock.Lock_manager.resource -> Imdb_lock.Lock_manager.mode -> unit
(** Take one lock for [txn] through {!Imdb_lock.Lock_manager.acquire}
    with [config.lock_wait_timeout_ms] as the timeout: a conflict gives
    up at once at 0, else parks with the session gate released only
    while parked.  A wait that parked is tallied into the transaction's
    [tx_lock_waits]/[tx_lock_wait_us].  Deadlock and timeout raise
    {!Deadlock_abort} naming the victim (the requester). *)

val lock_record : t -> txn -> table_id:int -> key:string -> Imdb_lock.Lock_manager.mode -> unit
(** Isolation-aware locking: 2PL takes intent + record locks; snapshot
    writers take X only; versioned reads don't lock. *)

(** {1 Stamping triggers} *)

val stamp_page : t -> Imdb_buffer.Buffer_pool.frame -> unit
(** Lazily stamp every committed version in the page (marks it dirty,
    unlogged, {e before} stamping so the GC horizon stays behind it). *)

val stamp_record : t -> Imdb_buffer.Buffer_pool.frame -> key:string -> unit
(** Per-record variant for the read/write paths. *)

(** {1 History pages} *)

val history_page : t -> int -> history_image
(** The decoded ([P_history]-format) image of history page [pid]: from
    the memo without pinning when it holds the page (a
    [histcache.hits]); otherwise pinned through the buffer pool, decoded
    and memoized (a [histcache.misses]).  The memo is FIFO-bounded by
    [config.histcache_capacity] ([histcache.evictions]).  The image
    never aliases a frame.
    @raise Invalid_argument if the stored page is not compressed
    history (every history page is stored compressed). *)

val history_link : t -> int -> Imdb_clock.Timestamp.t * int
(** [(split_time, history_pointer)] of history page [pid], what a chain
    walk steps by: from the memo when it holds the page, else read from
    the pinned frame without decoding or memoizing.  Counts like
    {!history_page}. *)

(** {1 Checkpoints} *)

val checkpoint : t -> int64
(** Sweep long-dirty pages, write the checkpoint record, force the meta
    page, and garbage-collect the PTT.  Returns the checkpoint LSN. *)

val maybe_auto_checkpoint : t -> unit

(** {1 Table cache} *)

val register_table : t -> Catalog.table_info -> unit
val unregister_table : t -> Catalog.table_info -> unit
val table_by_name : t -> string -> Catalog.table_info option
val table_by_id : t -> int -> Catalog.table_info option
val list_tables : t -> Catalog.table_info list

(** {1 Construction} *)

val make :
  ?metrics:Imdb_obs.Metrics.t ->
  disk:Imdb_storage.Disk.t ->
  log_device:Imdb_wal.Wal.Device.t ->
  config:config ->
  clock:Imdb_clock.Clock.t ->
  unit ->
  t
(** Build an engine over the devices.  A fresh [Metrics] registry is
    created unless one is passed; the disk, WAL, buffer pool, stamper and
    system trees are all pointed at it. *)

val bootstrap : t -> unit
(** Format a fresh database (meta page, catalog, PTT, first checkpoint). *)

val attach_system : t -> unit
(** Attach catalog/PTT from recovered metadata and load the table cache. *)

val close : t -> unit
(** Stops the monitor sampler thread, checkpoints, flushes and closes
    the devices. *)

(** {1 Session statistics and introspection} *)

val fold_txn_stats :
  t -> txn -> committed:bool -> ?latency_ticks:int -> ?batch_pos:int -> unit -> unit
(** Fold a finished transaction's tallies into its session's cumulative
    stats and the [session.*] counters.  Called by {!Txnmgr} under the
    gate; [latency_ticks]/[batch_pos] accompany persistent commits. *)

val session_stats_for : t -> int -> session_stats
(** The (created-on-demand) stats record for a session id. *)

val session_stats_list : t -> session_stats list
(** All sessions seen so far, sorted by id. *)

val sessions_json : t -> Imdb_obs.Json.t
(** [{"sessions": [{"id", "active_txns", "commits", "aborts",
    "rows_read", "rows_written", "lock_waits", "lock_wait_us",
    "commit_latency_ticks", "last_batch_pos", "max_batch_pos"}...]}] —
    the payload behind the SQL [SESSIONS] pragma and [imdb sessions]. *)

(** {1 Flight recorder} *)

val write_flight_report : t -> reason:string -> string option
(** Write the post-mortem payload to [config.flight_recorder_dir]
    (creating the directory), returning the path.  The payload takes one
    final monitor sample, then bundles the monitor ring, session stats, a
    consistent lock dump, the tracer rings and the full metrics
    exposition.  [None] when unconfigured, and on
    any write failure — the recorder must never mask the failure it is
    documenting. *)
