(** The public face of Immortal DB.

    A database holds tables of three kinds:
    - {e immortal} tables keep every version of every record forever and
      answer [AS OF] queries about any past state (the paper's
      transaction-time tables);
    - {e snapshot} tables keep recent versions only, enough to serve
      snapshot-isolation readers, and garbage-collect the rest;
    - {e conventional} tables update in place.

    All data access happens inside transactions.  Writers get strict
    two-phase locking by default, or snapshot isolation with
    first-committer-wins; [As_of] transactions are read-only views of a
    past state.  Commit timestamps are assigned {e at commit}, agree with
    serialization order, and become the version coordinates that [as_of]
    and [history] queries address.

    A [Db.t] may be driven from several domains at once: every operation
    runs under the engine's session gate, which is released while a
    session parks on a lock conflict and across the commit-record fsync
    (where concurrent committers batch one device sync).  Give each
    domain its own {!Session}; set
    [config.lock_wait_timeout_ms > 0] so conflicting sessions park
    instead of giving up at once (timeout 0, the default).  Either way a
    deadlock or a timeout raises {!Engine.Deadlock_abort}. *)

type t
(** An open database handle. *)

type txn = Engine.txn
(** A transaction handle, valid until [commit]/[abort]. *)

type isolation = Engine.isolation =
  | Serializable  (** strict 2PL; reads lock *)
  | Snapshot_isolation
      (** reads see a stable snapshot taken at [begin_txn] and never
          block; concurrent writers of the same record are resolved
          first-committer-wins *)
  | As_of of Imdb_clock.Timestamp.t
      (** read-only view of the database as of a past time; requires the
          tables read to be immortal *)

type mode = Catalog.table_mode =
  | Immortal  (** versions persist forever; AS OF supported *)
  | Snapshot_table  (** versions kept for snapshot isolation only *)
  | Conventional  (** update in place *)

exception No_such_table of string

(** {1 Lifecycle} *)

val open_memory : ?config:Engine.config -> ?clock:Imdb_clock.Clock.t -> unit -> t
(** A fresh in-memory database (testing, benchmarks). *)

val open_dir : ?config:Engine.config -> ?clock:Imdb_clock.Clock.t -> string -> t
(** Open (creating if needed) a file-backed database in the given
    directory: data pages in [data.imdb], the log in [wal.imdb].
    Runs crash recovery if the previous session did not close cleanly. *)

val open_devices :
  ?metrics:Imdb_obs.Metrics.t ->
  ?config:Engine.config ->
  ?clock:Imdb_clock.Clock.t ->
  disk:Imdb_storage.Disk.t ->
  log_device:Imdb_wal.Wal.Device.t ->
  unit ->
  t
(** Open over explicit devices (crash tests reuse in-memory devices).
    Passing [metrics] lets a crash harness keep one registry across
    repeated reopens, so work counters accumulate over the whole
    crash/recover history instead of resetting per open. *)

val close : t -> unit
(** Flush everything and release the devices. *)

val checkpoint : t -> unit
(** Force a checkpoint: sweeps old dirty pages, bounds the next recovery,
    and garbage-collects the persistent timestamp table. *)

exception Vacuum_blocked of string

val vacuum : t -> int
(** Force timestamping to completion everywhere, then forget every
    mapping no version still needs: the PTT empties (one batched delete)
    and so does the VTT's committed part — the paper's remedy for
    entries orphaned by crashes (whose volatile reference counts were
    lost).  Requires no active transactions; returns the number of PTT
    entries removed.  @raise Vacuum_blocked *)

val crash_and_reopen : ?config:Engine.config -> ?clock:Imdb_clock.Clock.t -> t -> t
(** Simulate a crash: discard all volatile state (buffer pool, volatile
    timestamp table, unflushed log tail) and reopen over the same devices,
    running recovery.  The original handle must not be used afterwards. *)

val engine : t -> Engine.t
(** The underlying engine, for tools and tests that need internals. *)

val devices : t -> Imdb_storage.Disk.t * Imdb_wal.Wal.Device.t
(** The devices this database was opened over — what a crash harness
    needs to reopen via {!open_devices} when recovery itself crashed and
    left no live handle for {!crash_and_reopen}. *)

val metrics : t -> Imdb_obs.Metrics.t
(** This database's private metrics registry: counters, histograms and
    trace events for everything its engine has done since open.  Two open
    databases never share a registry. *)

val tracer : t -> Imdb_obs.Tracer.t
(** This database's span tracer ({!Imdb_obs.Tracer.null} unless the
    engine config enables tracing via [trace_sampling > 0]). *)

(** {1 Transactions} *)

val begin_txn : ?isolation:isolation -> t -> txn
(** Start a transaction (default [Serializable]). *)

val commit : t -> txn -> Imdb_clock.Timestamp.t option
(** Commit; returns the commit timestamp, or [None] for a transaction
    that wrote nothing (read-only transactions leave no trace). *)

val abort : t -> txn -> unit
(** Roll back every change the transaction made. *)

val with_txn : ?isolation:isolation -> t -> (txn -> 'a) -> 'a
(** Run [f] in a transaction: commit on return, abort on exception. *)

val exec : ?isolation:isolation -> t -> (txn -> 'a) -> 'a
(** Alias of [with_txn], for single-statement use. *)

val as_of : t -> Imdb_clock.Timestamp.t -> (txn -> 'a) -> 'a
(** Run a read-only function against the database state at a past time:
    [as_of db ts f] = [with_txn ~isolation:(As_of ts) db f]. *)

(** {1 DDL (autocommitted)} *)

val create_table : t -> name:string -> mode:mode -> schema:Schema.t -> unit
(** Create a table.  The schema's first column is the primary key. *)

val drop_table : t -> string -> bool
(** Remove a table from the catalog; returns whether it existed.  The
    table's pages are not reclaimed (history is immortal). *)

val enable_snapshot : t -> table:string -> int
(** [ALTER TABLE ... ENABLE SNAPSHOT] (paper §4.1): convert a
    conventional table to snapshot versioning, migrating its rows.
    Returns the row count.  @raise No_such_table *)

val table_info : t -> string -> Catalog.table_info
(** Catalog entry for a table.  @raise No_such_table *)

val list_tables : t -> Catalog.table_info list

(** {1 Typed row operations}

    Rows are value lists matching the table schema; the first value is
    the primary key. *)

val insert_row : t -> txn -> table:string -> Schema.value list -> unit
(** @raise Table.Duplicate_key if the key currently exists. *)

val update_row : t -> txn -> table:string -> Schema.value list -> unit
(** @raise Table.No_such_key if the key does not currently exist. *)

val upsert_row : t -> txn -> table:string -> Schema.value list -> unit

val delete_row : t -> txn -> table:string -> key:Schema.value -> unit
(** On versioned tables this inserts a delete stub: the record's history
    remains queryable.  @raise Table.No_such_key *)

val get_row : t -> txn -> table:string -> key:Schema.value -> Schema.value list option
(** The row visible to [txn]: the locked current version under
    [Serializable], the snapshot version under [Snapshot_isolation], the
    historical version under [As_of]. *)

val scan_rows : ?lo:string -> ?hi:string -> t -> txn -> table:string -> Schema.value list list
(** Every row visible to [txn], in key order; [lo]/[hi] bound the scan to
    an encoded-key window [lo, hi). *)

val scan_rows_range :
  ?low:Schema.value -> ?high:Schema.value -> t -> txn -> table:string -> Schema.value list list
(** Typed key-range scan: rows with [low <= key < high]. *)

val scan_rows_as_of :
  t -> txn -> table:string -> ts:Imdb_clock.Timestamp.t -> Schema.value list list
(** Full table state as of [ts] (immortal tables only). *)

val history_rows :
  t ->
  txn ->
  table:string ->
  key:Schema.value ->
  (Imdb_clock.Timestamp.t * Schema.value list option) list
(** Time travel: every state the record ever had, newest first; [None]
    marks a deletion (immortal tables only). *)

(** {1 Raw key/payload operations}

    The engine-level API beneath the typed layer: keys are
    order-preserving encoded strings (see {!Schema.encode_key}), payloads
    opaque strings. *)

val insert : t -> txn -> table:string -> key:string -> payload:string -> unit
val update : t -> txn -> table:string -> key:string -> payload:string -> unit
val upsert : t -> txn -> table:string -> key:string -> payload:string -> unit
val delete : t -> txn -> table:string -> key:string -> unit
val get : t -> txn -> table:string -> key:string -> string option

val scan :
  ?lo:string -> ?hi:string -> t -> txn -> table:string -> (string -> string -> unit) -> unit

val scan_as_of :
  ?lo:string ->
  ?hi:string ->
  t ->
  txn ->
  table:string ->
  ts:Imdb_clock.Timestamp.t ->
  (string -> string -> unit) ->
  unit

val history :
  t -> txn -> table:string -> key:string ->
  (Imdb_clock.Timestamp.t * string option) list

(** {1 Sessions}

    The multi-core topology: open one database, hand each domain its own
    session, drive transactions through it.  Sessions are cheap handles —
    the engine's session gate does the synchronization — but they make
    ownership explicit (a txn begun on a session is that session's to
    finish) and give each thread-of-control an id for observability. *)

module Session : sig
  type t

  val id : t -> int

  val begin_txn : ?isolation:isolation -> t -> txn
  val commit : t -> txn -> Imdb_clock.Timestamp.t option
  val abort : t -> txn -> unit
  val with_txn : ?isolation:isolation -> t -> (txn -> 'a) -> 'a
  val as_of : t -> Imdb_clock.Timestamp.t -> (txn -> 'a) -> 'a

  val insert : t -> txn -> table:string -> key:string -> payload:string -> unit
  val update : t -> txn -> table:string -> key:string -> payload:string -> unit
  val upsert : t -> txn -> table:string -> key:string -> payload:string -> unit
  val delete : t -> txn -> table:string -> key:string -> unit
  val get : t -> txn -> table:string -> key:string -> string option

  val scan :
    ?lo:string -> ?hi:string -> t -> txn -> table:string ->
    (string -> string -> unit) -> unit

  val scan_as_of :
    ?lo:string -> ?hi:string -> t -> txn -> table:string ->
    ts:Imdb_clock.Timestamp.t -> (string -> string -> unit) -> unit

end

val session : t -> Session.t
(** A new session over this database.  Create one per domain. *)

(** {1 Introspection}

    Live views of what the engine is doing, for monitoring tools, the
    SQL pragmas ([SESSIONS], [LOCKS]) and the crash flight recorder. *)

val sessions_json : t -> Imdb_obs.Json.t
(** Per-session statistics (commits, aborts, rows read/written, lock
    waits and wait time, commit latency, group-commit batch positions),
    plus each session's count of currently active transactions. *)

val locks_json : t -> Imdb_obs.Json.t
(** A consistent dump of the lock manager: current holders and the live
    wait-for graph.  Taken without the session gate, so it works even
    while every session is parked on a conflict. *)

val monitor : t -> Imdb_obs.Monitor.t
(** The continuous monitor ({!Imdb_obs.Monitor.null} unless the engine
    config enables it via [monitor_interval_ms > 0]). *)

val monitor_json : t -> Imdb_obs.Json.t
(** The monitor's ring of samples plus derived rates and latency
    percentiles, as JSON. *)

val write_flight_report : t -> reason:string -> string option
(** Persist a flight-recorder report (recent monitor samples, session
    stats, lock dump, slow-op traces and a full metrics snapshot) under
    the engine config's [flight_recorder_dir]; returns the file path, or
    [None] when no directory is configured or the write failed (best
    effort). *)
