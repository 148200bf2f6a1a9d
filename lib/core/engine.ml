(* Engine state and primitives.

   This module owns the wiring: disk, WAL, buffer pool, lock manager,
   clock, VTT/PTT stamping machinery, page allocation, the catalog cache,
   the active transaction table, and checkpointing.  Data operations live
   in [Table]; begin/commit/abort in [Txnmgr]; crash recovery in
   [Recovery]; the public facade in [Db]. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module LR = Imdb_wal.Log_record

let log_src = Logs.Src.create "imdb.engine" ~doc:"Immortal DB engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type timestamping_mode = Lazy_stamping | Eager_stamping

type config = {
  page_size : int;
  pool_capacity : int;
  timestamping : timestamping_mode;
  key_split_threshold : float; (* the paper's T, default 0.7 *)
  auto_checkpoint_every : int; (* commits between checkpoints; 0 = manual *)
  tsb_enabled : bool; (* maintain the TSB index on time splits *)
  histcache_capacity : int;
      (* the bound, at least 64, on the decoded history-page memo *)
  trace_sampling : int;
      (* 0 = tracing off (the null tracer: one dead branch per site);
         1 = every root span; n > 1 = every n-th root span, children
         following their root *)
  ingest_buffer_rows : int;
      (* messages accumulated before a fill-triggered flush (the page
         itself caps the buffer regardless) *)
  lock_wait_timeout_ms : int;
      (* how long a conflicting lock request parks (releasing the engine
         gate while parked) before its waiter is the timeout victim;
         0 = give up at once — the single-session behavior, where
         parking would self-deadlock *)
  monitor_interval_ms : int;
      (* 0 = no continuous monitor (the null monitor: one dead branch
         per site); > 0 = a background thread samples the counter
         registry every this many milliseconds into a bounded ring *)
  flight_recorder_dir : string option;
      (* when set, recovery-after-crash writes a post-mortem JSON report
         (monitor ring, slow ops, lock dump, metrics) into this
         directory; None = never *)
}

let default_config =
  {
    page_size = 8192;
    pool_capacity = 256;
    timestamping = Lazy_stamping;
    key_split_threshold = 0.7;
    auto_checkpoint_every = 0;
    tsb_enabled = true;
    histcache_capacity = 1024;
    trace_sampling = 0;
    ingest_buffer_rows = 64;
    lock_wait_timeout_ms = 0;
    monitor_interval_ms = 0;
    flight_recorder_dir = None;
  }

type isolation = Serializable | Snapshot_isolation | As_of of Ts.t

type txn_state = Running | Rolling_back | Finished

type txn = {
  tx_tid : Tid.t;
  tx_isolation : isolation;
  tx_snapshot : Ts.t; (* reads see versions with start <= tx_snapshot (SI / AS OF) *)
  tx_session : int; (* owning session id; 0 = anonymous (plain Db calls) *)
  mutable tx_state : txn_state;
  mutable tx_begun : bool; (* Begin record logged *)
  mutable tx_last_lsn : int64; (* head of the undo chain *)
  mutable tx_writes : (int * string) list; (* (table_id, key), newest first, deduped *)
  tx_write_set : (int * string, unit) Hashtbl.t; (* dedup index over tx_writes *)
  mutable tx_commit_ts : Ts.t option;
  mutable tx_durable : bool; (* commit record synced to the log device *)
  mutable tx_rows_read : int; (* rows delivered to this txn's reads *)
  mutable tx_rows_written : int; (* write ops (insert/update/upsert/delete) *)
  mutable tx_lock_waits : int; (* blocking lock waits that actually parked *)
  mutable tx_lock_wait_us : int; (* wall µs spent parked on locks *)
}

exception Txn_finished
exception Read_only_txn
exception Deadlock_abort of Tid.t

(* Cumulative per-session statistics, folded in from each transaction's
   tallies when it finishes.  Mutated only under the session gate. *)
type session_stats = {
  ss_id : int;
  mutable ss_commits : int;
  mutable ss_aborts : int;
  mutable ss_rows_read : int;
  mutable ss_rows_written : int;
  mutable ss_lock_waits : int;
  mutable ss_lock_wait_us : int;
  mutable ss_commit_latency_ticks : int;
      (* cumulative snapshot->commit clock ticks, same unit as the
         txn.commit_latency_ms histogram *)
  mutable ss_last_batch_pos : int;
      (* position in the group-commit batch of the newest commit: 1 =
         the batch leader (its flush pays the sync), k > 1 = rode a
         shared sync *)
  mutable ss_max_batch_pos : int;
}

(* A decoded history image as temporal reads see it, with the page's
   version directory, built the first time a scan or history walk forces
   it.  A memo entry's directory is never invalidated: the image it
   indexes never changes. *)
type history_image = { hi_image : bytes; hi_dir : Imdb_version.Vpage.directory Lazy.t }

type t = {
  disk : Imdb_storage.Disk.t;
  wal : Imdb_wal.Wal.t;
  pool : BP.t;
  gate : Imdb_util.Park.lock;
      (* the session gate: every public operation runs under it, so the
         single-threaded interior (clock, VTT, catalog cache, cur_txn) is
         safe with many sessions; released only while a session parks on
         a lock and across the commit-record fsync *)
  clock : Imdb_clock.Clock.t;
  locks : Imdb_lock.Lock_manager.t;
  stamper : Imdb_tstamp.Lazy_stamper.t;
  metrics : Imdb_obs.Metrics.t;
  tracer : Imdb_obs.Tracer.t;
  config : config;
  mutable meta : Meta.t;
  mutable ptt : Imdb_tstamp.Ptt.t option;
  mutable catalog_tree : Imdb_btree.Btree.t option;
  tables : (int, Catalog.table_info) Hashtbl.t;
  table_ids : (string, int) Hashtbl.t;
  active : txn Tid.Table.t;
  mutable next_tid : Tid.t;
  mutable cur_txn : txn option; (* logging context for undoable ops *)
  mutable commits_since_checkpoint : int;
  mutable in_recovery : bool;
  mutable after_ptt_post : unit -> unit;
      (* fault-injection point: runs inside [checkpoint] right after the
         posting group is appended, before the checkpoint record *)
  hist_decoded : (int, history_image) Hashtbl.t;
      (* page id -> decoded image of a fully stamped history page and its
         version directory once built, the memo [history_page] serves;
         gate-guarded.  Entries never go stale: a history page is
         immutable from the moment its time split writes it. *)
  hist_decoded_order : int Queue.t; (* FIFO bound for [hist_decoded] *)
  ingest_bufs : (int, Ingest.buf) Hashtbl.t;
      (* table id -> volatile mirror of the table's message-buffer page;
         populated lazily on first buffered write, rebuilt at attach *)
  mutable ingest_seq : int; (* last message sequence number issued *)
  session_stats : (int, session_stats) Hashtbl.t;
      (* per-session cumulative statistics, keyed by session id (0 =
         anonymous); gate-guarded *)
  monitor : Imdb_obs.Monitor.t;
      (* the continuous sampler; [Monitor.null] unless
         config.monitor_interval_ms > 0 *)
}

let vtt t = Imdb_tstamp.Lazy_stamper.vtt t.stamper

let ptt_exn t =
  match t.ptt with Some p -> p | None -> failwith "Engine: PTT not initialized"

let catalog_exn t =
  match t.catalog_tree with
  | Some c -> c
  | None -> failwith "Engine: catalog not initialized"

(* ------------------------------------------------------------------ *)
(* The session gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [f] holding the session gate.  Reentrant, so public operations
   compose freely; a single session pays two uncontended mutex ops. *)
let exclusively t f =
  Imdb_util.Park.acquire t.gate;
  Fun.protect ~finally:(fun () -> Imdb_util.Park.release t.gate) f

(* ------------------------------------------------------------------ *)
(* Ingest buffering state                                              *)
(* ------------------------------------------------------------------ *)

(* Buffered ingestion applies to immortal tables under lazy stamping
   (the deferred flush leans on lazy timestamps: versions are applied
   unstamped and resolve exactly like direct writes).  Eager mode,
   non-immortal tables and snapshot-isolation writers
   (Table.write_version) take the classic per-row descent. *)
let ingest_enabled t ti =
  t.config.timestamping = Lazy_stamping
  && ti.Catalog.ti_mode = Catalog.Immortal

let ingest_buf t ti = Hashtbl.find_opt t.ingest_bufs ti.Catalog.ti_id

let next_ingest_seq t =
  t.ingest_seq <- t.ingest_seq + 1;
  t.ingest_seq

(* ------------------------------------------------------------------ *)
(* Logging core                                                        *)
(* ------------------------------------------------------------------ *)

let ensure_begun t txn =
  if not txn.tx_begun then begin
    txn.tx_begun <- true;
    let lsn = Imdb_wal.Wal.append t.wal (LR.Begin { tid = txn.tx_tid }) in
    txn.tx_last_lsn <- lsn
  end

(* Log [op] against the frame's page, apply it, mark the frame dirty.
   [undoable] ops join the current transaction's undo chain; others are
   redo-only structure modifications. *)
let exec_op t fr ~undoable op =
  let page_id = BP.page_id fr in
  let lsn =
    if undoable then begin
      match t.cur_txn with
      | None -> failwith "Engine.exec_op: undoable op outside a transaction"
      | Some txn ->
          ensure_begun t txn;
          let lsn =
            Imdb_wal.Wal.append t.wal
              (LR.Update { tid = txn.tx_tid; prev_lsn = txn.tx_last_lsn; page_id; op })
          in
          txn.tx_last_lsn <- lsn;
          lsn
    end
    else Imdb_wal.Wal.append t.wal (LR.Redo_only { page_id; op })
  in
  LR.redo_op (BP.bytes fr) op;
  BP.mark_dirty_logged t.pool fr ~lsn

(* Log a redo-only [op] for a change the caller has ALREADY applied to
   the frame.  Batched flush application needs this order: each insert
   must hit the page before the next can be planned, so the whole run is
   applied first and logged as one record.  The WAL rule still holds —
   the frame's dirty LSN gates its flush behind the log append, and
   replay applies [op] to the pre-batch image. *)
let log_applied t fr op =
  let lsn =
    Imdb_wal.Wal.append t.wal (LR.Redo_only { page_id = BP.page_id fr; op })
  in
  BP.mark_dirty_logged t.pool fr ~lsn

let with_txn t txn f =
  let saved = t.cur_txn in
  t.cur_txn <- Some txn;
  Fun.protect ~finally:(fun () -> t.cur_txn <- saved) f

(* ------------------------------------------------------------------ *)
(* Meta page & page allocation                                         *)
(* ------------------------------------------------------------------ *)

let update_meta t mutate =
  BP.with_page t.pool Meta.meta_page_id (fun fr ->
      mutate t.meta;
      exec_op t fr ~undoable:false
        (LR.Op_replace { slot = Meta.meta_slot; body = Meta.encode t.meta }))

(* Allocate a page: from the freelist if possible, else extend the file.
   The page is formatted and redo-logged; the caller finds it cached. *)
let alloc_page t ~ptype ~level ~table_id =
  Imdb_obs.Metrics.incr t.metrics Imdb_obs.Metrics.pages_allocated;
  let from_freelist = t.meta.Meta.freelist_head <> 0 in
  let pid =
    if from_freelist then begin
      let pid = t.meta.Meta.freelist_head in
      let next =
        BP.with_page t.pool pid (fun fr -> P.next_page (BP.bytes fr))
      in
      update_meta t (fun m -> m.Meta.freelist_head <- next);
      pid
    end
    else begin
      let pid = t.meta.Meta.hwm in
      update_meta t (fun m -> m.Meta.hwm <- pid + 1);
      pid
    end
  in
  let fr = if from_freelist then BP.pin t.pool pid else BP.pin_new t.pool pid in
  Fun.protect
    ~finally:(fun () -> BP.unpin t.pool fr)
    (fun () ->
      P.set_page_id (BP.bytes fr) pid;
      exec_op t fr ~undoable:false (LR.Op_format { page_type = ptype; table_id; level }));
  pid

let free_page t pid =
  (* the freed id may be reused for a mutable page: make sure no stale
     immutable image or directory can be served (belt and braces — only
     btree pages are ever freed, and those are never memoized) *)
  Hashtbl.remove t.hist_decoded pid;
  BP.with_page t.pool pid (fun fr ->
      exec_op t fr ~undoable:false
        (LR.Op_format { page_type = P.P_free; table_id = 0; level = 0 });
      exec_op t fr ~undoable:false (LR.header_u32 ~at:40 t.meta.Meta.freelist_head));
  update_meta t (fun m -> m.Meta.freelist_head <- pid)

(* ------------------------------------------------------------------ *)
(* io adapters for the index structures                                *)
(* ------------------------------------------------------------------ *)

let btree_io_for t table_id : Imdb_btree.Btree.io =
  {
    exec = (fun fr ~undoable op -> exec_op t fr ~undoable op);
    alloc = (fun ~ptype ~level -> alloc_page t ~ptype ~level ~table_id);
    free = (fun pid -> free_page t pid);
    atomic = (fun f -> Imdb_wal.Wal.atomically t.wal f);
  }

let tsb_io t table_id : Imdb_tsb.Tsb.io =
  {
    exec = (fun fr op -> exec_op t fr ~undoable:false op);
    alloc = (fun ~level -> alloc_page t ~ptype:P.P_tsb_index ~level ~table_id);
  }

(* ------------------------------------------------------------------ *)
(* Transactions: registry and snapshots                                *)
(* ------------------------------------------------------------------ *)

(* A session: a lightweight handle for one thread-of-control (typically
   one domain) talking to a shared engine.  Sessions carry no mutable
   engine state of their own — every public operation synchronizes on the
   session gate — so any number may run on any domains; the id feeds
   observability.  Opening one [Db.t] and handing each domain its own
   session is the supported multi-core topology. *)
type session = { s_engine : t; s_id : int }

let session_seq = Atomic.make 1
let session t = { s_engine = t; s_id = Atomic.fetch_and_add session_seq 1 }

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- Tid.next tid;
  tid

let begin_txn ?(session = 0) t ~isolation =
  let tid = fresh_tid t in
  Imdb_tstamp.Vtt.begin_txn (vtt t) tid;
  let snapshot =
    match isolation with
    | As_of ts -> ts
    | Serializable | Snapshot_isolation -> Imdb_clock.Clock.last_issued t.clock
  in
  let txn =
    {
      tx_tid = tid;
      tx_isolation = isolation;
      tx_snapshot = snapshot;
      tx_session = session;
      tx_state = Running;
      tx_begun = false;
      tx_last_lsn = LR.nil_lsn;
      tx_writes = [];
      tx_write_set = Hashtbl.create 8;
      tx_commit_ts = None;
      tx_durable = false;
      tx_rows_read = 0;
      tx_rows_written = 0;
      tx_lock_waits = 0;
      tx_lock_wait_us = 0;
    }
  in
  Tid.Table.replace t.active tid txn;
  Imdb_obs.Tracer.instant t.tracer "txn.begin"
    ~attrs:[ ("tid", Tid.to_string tid) ];
  txn

let check_running txn =
  match txn.tx_state with Running -> () | Rolling_back | Finished -> raise Txn_finished

let is_read_only txn = txn.tx_writes = []

(* The oldest snapshot any active transaction might still read — the
   version GC horizon for snapshot-only tables ("Immortal DB keeps track
   of the time of the oldest active snapshot transaction O"). *)
(* Snapshot times of all running snapshot/as-of transactions — the exact
   visibility horizon set for snapshot-table version GC. *)
let active_snapshots t =
  Tid.Table.fold
    (fun _ txn acc ->
      match (txn.tx_state, txn.tx_isolation) with
      | Running, (Snapshot_isolation | As_of _) -> txn.tx_snapshot :: acc
      | _ -> acc)
    t.active []

let note_write t txn ~table_id ~key =
  check_running txn;
  (match txn.tx_isolation with As_of _ -> raise Read_only_txn | _ -> ());
  if not (Hashtbl.mem txn.tx_write_set (table_id, key)) then begin
    Hashtbl.replace txn.tx_write_set (table_id, key) ();
    txn.tx_writes <- (table_id, key) :: txn.tx_writes
  end;
  txn.tx_rows_written <- txn.tx_rows_written + 1;
  ignore t

(* ------------------------------------------------------------------ *)
(* Session statistics                                                   *)
(* ------------------------------------------------------------------ *)

let session_stats_for t sid =
  match Hashtbl.find_opt t.session_stats sid with
  | Some ss -> ss
  | None ->
      let ss =
        {
          ss_id = sid;
          ss_commits = 0;
          ss_aborts = 0;
          ss_rows_read = 0;
          ss_rows_written = 0;
          ss_lock_waits = 0;
          ss_lock_wait_us = 0;
          ss_commit_latency_ticks = 0;
          ss_last_batch_pos = 0;
          ss_max_batch_pos = 0;
        }
      in
      Hashtbl.add t.session_stats sid ss;
      ss

(* Fold a finished transaction's tallies into its session's cumulative
   stats (and the engine-wide session.* counters).  Called from
   [Txnmgr.commit]/[abort] under the gate; [latency_ticks]/[batch_pos]
   only accompany a persistent commit. *)
let fold_txn_stats t txn ~committed ?latency_ticks ?batch_pos () =
  let ss = session_stats_for t txn.tx_session in
  if committed then ss.ss_commits <- ss.ss_commits + 1
  else ss.ss_aborts <- ss.ss_aborts + 1;
  ss.ss_rows_read <- ss.ss_rows_read + txn.tx_rows_read;
  ss.ss_rows_written <- ss.ss_rows_written + txn.tx_rows_written;
  ss.ss_lock_waits <- ss.ss_lock_waits + txn.tx_lock_waits;
  ss.ss_lock_wait_us <- ss.ss_lock_wait_us + txn.tx_lock_wait_us;
  (match latency_ticks with
  | Some l -> ss.ss_commit_latency_ticks <- ss.ss_commit_latency_ticks + l
  | None -> ());
  (match batch_pos with
  | Some p ->
      ss.ss_last_batch_pos <- p;
      if p > ss.ss_max_batch_pos then ss.ss_max_batch_pos <- p
  | None -> ());
  (* the registry's session.* counters are commit-time only: aborted
     work stays visible in the per-session stats above, but never in the
     counter exposition the bench gates pin *)
  let module Mx = Imdb_obs.Metrics in
  if committed then begin
    if txn.tx_rows_read > 0 then
      Mx.incr ~by:txn.tx_rows_read t.metrics Mx.session_rows_read;
    if txn.tx_rows_written > 0 then
      Mx.incr ~by:txn.tx_rows_written t.metrics Mx.session_rows_written
  end

let session_stats_list t =
  Hashtbl.fold (fun _ ss acc -> ss :: acc) t.session_stats []
  |> List.sort (fun a b -> compare a.ss_id b.ss_id)

let sessions_json t =
  let module J = Imdb_obs.Json in
  let active_by_session = Hashtbl.create 8 in
  Tid.Table.iter
    (fun _ txn ->
      match txn.tx_state with
      | Running | Rolling_back ->
          let n =
            Option.value ~default:0
              (Hashtbl.find_opt active_by_session txn.tx_session)
          in
          Hashtbl.replace active_by_session txn.tx_session (n + 1)
      | Finished -> ())
    t.active;
  let ss_json ss =
    J.Obj
      [
        ("id", J.Int ss.ss_id);
        ( "active_txns",
          J.Int
            (Option.value ~default:0 (Hashtbl.find_opt active_by_session ss.ss_id))
        );
        ("commits", J.Int ss.ss_commits);
        ("aborts", J.Int ss.ss_aborts);
        ("rows_read", J.Int ss.ss_rows_read);
        ("rows_written", J.Int ss.ss_rows_written);
        ("lock_waits", J.Int ss.ss_lock_waits);
        ("lock_wait_us", J.Int ss.ss_lock_wait_us);
        ("commit_latency_ticks", J.Int ss.ss_commit_latency_ticks);
        ("last_batch_pos", J.Int ss.ss_last_batch_pos);
        ("max_batch_pos", J.Int ss.ss_max_batch_pos);
      ]
  in
  J.Obj [ ("sessions", J.List (List.map ss_json (session_stats_list t))) ]

(* ------------------------------------------------------------------ *)
(* Locking helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Take one lock for [txn].  A conflict parks the session for up to
   [lock_wait_timeout_ms] — with the gate released only while it is
   parked, so the holder can make progress and release — and gives up at
   once at timeout 0.  A deadlock or a timeout selects this requester as
   the victim. *)
let lock_resource t txn res mode =
  let module L = Imdb_lock.Lock_manager in
  match
    L.acquire
      ~on_park:(fun () -> Imdb_util.Park.suspend t.gate)
      ~timeout_us:(t.config.lock_wait_timeout_ms * 1000)
      t.locks txn.tx_tid res mode
  with
  | 0 -> ()
  | waited_us ->
      txn.tx_lock_waits <- txn.tx_lock_waits + 1;
      txn.tx_lock_wait_us <- txn.tx_lock_wait_us + waited_us
  | exception (L.Deadlock tid | L.Lock_timeout { tid; _ }) -> raise (Deadlock_abort tid)

let lock_record t txn ~table_id ~key mode =
  match txn.tx_isolation with
  | Serializable ->
      let open Imdb_lock.Lock_manager in
      let intent = match mode with X -> IX | _ -> IS in
      lock_resource t txn (Table table_id) intent;
      lock_resource t txn (Record (table_id, key)) mode
  | Snapshot_isolation when mode = Imdb_lock.Lock_manager.X ->
      (* SI writers take write locks so that concurrent writers are
         detected immediately (first-committer-wins is enforced by
         timestamp validation; the lock merely serializes the attempt) *)
      lock_resource t txn (Record (table_id, key)) Imdb_lock.Lock_manager.X
  | Snapshot_isolation | As_of _ -> () (* versioned reads never lock *)

(* ------------------------------------------------------------------ *)
(* Stamping helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* Lazily stamp every committed version in a pinned page (normal-access
   trigger).  Unlogged; the page is marked dirty first so the redo-scan
   start point can never advance past the stamping before it reaches
   disk. *)
let stamp_page t fr =
  let page = BP.bytes fr in
  if Imdb_version.Vpage.has_unstamped page then
    Imdb_obs.Tracer.with_span t.tracer "stamp.page" (fun sp ->
        BP.mark_dirty_unlogged t.pool fr;
        let n = Imdb_tstamp.Lazy_stamper.stamp_page t.stamper page in
        Imdb_obs.Tracer.add_attr sp "page" (string_of_int (BP.page_id fr));
        Imdb_obs.Tracer.add_attr sp "stamped" (string_of_int n))

(* Per-record variant: the write/read-path trigger stamps only the
   accessed record's versions. *)
let stamp_record t fr ~key =
  let page = BP.bytes fr in
  if Imdb_version.Vpage.key_has_unstamped page ~key then
    Imdb_obs.Tracer.with_span t.tracer "stamp.record" (fun sp ->
        BP.mark_dirty_unlogged t.pool fr;
        let n =
          Imdb_version.Vpage.stamp_versions_of ~metrics:t.metrics page ~key
            ~resolve:(Imdb_tstamp.Lazy_stamper.resolve_for_stamping t.stamper)
            ~on_stamp:(Imdb_tstamp.Lazy_stamper.on_stamp t.stamper)
        in
        Imdb_obs.Tracer.add_attr sp "stamped" (string_of_int n))

(* ------------------------------------------------------------------ *)
(* History pages                                                        *)
(* ------------------------------------------------------------------ *)

(* Expand a compressed history image, timing the decode. *)
let decode_history t b =
  Imdb_obs.Tracer.with_span t.tracer "compress.decode" (fun sp ->
      let t0 = Unix.gettimeofday () in
      let img = Imdb_storage.Vcompress.decode b in
      Imdb_obs.Metrics.observe t.metrics Imdb_obs.Metrics.h_compress_decode_ns
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
      Imdb_obs.Tracer.add_attr sp "page" (string_of_int (P.page_id b));
      img)

let memoize_history t pid h =
  let module M = Imdb_obs.Metrics in
  if Queue.length t.hist_decoded_order >= max 64 t.config.histcache_capacity
  then begin
    Hashtbl.remove t.hist_decoded (Queue.pop t.hist_decoded_order);
    M.incr t.metrics M.histcache_evictions
  end;
  Hashtbl.replace t.hist_decoded pid h;
  Queue.push pid t.hist_decoded_order

(* The decoded image of history page [pid] for a temporal read.  A time
   split writes a history page once, compressed and fully stamped, and
   never again, so its image is memoized by page id and later reads skip
   the buffer pool entirely.  A miss pins the page through the pool
   (checksum verification, torn-page repair) and decodes it — the result
   never aliases a frame.  A page that is not compressed history is no
   history page: [Vcompress.decode] raises [Invalid_argument]. *)
let history_page t pid =
  let module M = Imdb_obs.Metrics in
  match Hashtbl.find_opt t.hist_decoded pid with
  | Some h ->
      M.incr t.metrics M.histcache_hits;
      h
  | None ->
      M.incr t.metrics M.histcache_misses;
      let img = BP.with_page t.pool pid (fun fr -> decode_history t (BP.bytes fr)) in
      let h = { hi_image = img; hi_dir = lazy (Imdb_version.Vpage.directory img) } in
      memoize_history t pid h;
      h

(* The two header fields a chain walk steps by — (split time, history
   pointer) of page [pid] — from the memo when it holds the page, else
   straight from the pinned frame: a page the walk only passes through is
   neither decoded nor memoized. *)
let history_link t pid =
  let module M = Imdb_obs.Metrics in
  let link page = (P.split_time page, P.history_pointer page) in
  match Hashtbl.find_opt t.hist_decoded pid with
  | Some h ->
      M.incr t.metrics M.histcache_hits;
      link h.hi_image
  | None ->
      M.incr t.metrics M.histcache_misses;
      BP.with_page t.pool pid (fun fr -> link (BP.bytes fr))

(* ------------------------------------------------------------------ *)
(* Checkpointing and PTT garbage collection                             *)
(* ------------------------------------------------------------------ *)

(* The span closes on exception too ([Tracer.with_span] wraps the body
   in [Fun.protect]).

   Posting precedes the checkpoint record.  The record names the
   redo-scan start computed after the sweep as recovery's start, and a
   Commit record below it no longer answers for its transaction, so
   every mapping committed below it that a page may still need must be
   in the PTT by then: the ones GC keeps at this redo-scan start are
   posted in one atomic group of redo-only records, which the flush
   after the checkpoint record makes durable with it.  The recorded
   start is that same LSN, not the minimum of the dirty-page table
   taken after posting: the posting may evict the page that held the
   eldest recLSN, and recovery must still read the Commit records the
   posting skipped.  GC itself runs once the meta page names the new
   checkpoint: deleting a mapping an earlier checkpoint posted is safe
   only when recovery can no longer start from that one. *)
let checkpoint t =
  let module M = Imdb_obs.Metrics in
  Imdb_obs.Tracer.with_span t.tracer "checkpoint" @@ fun sp ->
  (* Sweep pages dirty since before the previous checkpoint, so the
     redo-scan start point (and the PTT GC horizon) moves forward: a page
     escapes the dirty-page table only by reaching disk. *)
  let swept =
    BP.flush_older_than t.pool ~rec_lsn_limit:t.meta.Meta.last_checkpoint_lsn
  in
  (* the redo scan would start at the eldest dirty page, or at the end
     of the log if the pool is clean; pages dirtied from here on only
     move it later *)
  let redo_scan_start =
    List.fold_left
      (fun acc (_, rec_lsn) -> min acc rec_lsn)
      (Imdb_wal.Wal.next_lsn t.wal) (BP.dirty_page_table t.pool)
  in
  let posted =
    if t.ptt = None then 0
    else begin
      let posted =
        Imdb_wal.Wal.atomically t.wal (fun () ->
            Imdb_tstamp.Lazy_stamper.post t.stamper ~redo_scan_start)
      in
      t.after_ptt_post ();
      posted
    end
  in
  (* A committer out of the gate for its sync already has its commit
     record in the log, below this checkpoint: recovery starting here
     would never see it, so listing it would make it a loser.  The flush
     below makes that commit record durable with the checkpoint. *)
  let att =
    Tid.Table.fold
      (fun tid txn acc ->
        match txn.tx_state with
        | Running when txn.tx_begun && txn.tx_commit_ts = None ->
            (tid, txn.tx_last_lsn) :: acc
        | Rolling_back when txn.tx_begun -> (tid, txn.tx_last_lsn) :: acc
        | _ -> acc)
      t.active []
  in
  let dpt = BP.dirty_page_table t.pool in
  let lsn =
    Imdb_wal.Wal.append t.wal
      (LR.Checkpoint
         {
           att;
           dpt;
           next_tid = t.next_tid;
           clock = Imdb_clock.Clock.last_issued t.clock;
           redo_start = redo_scan_start;
         })
  in
  Imdb_wal.Wal.flush t.wal;
  update_meta t (fun m -> m.Meta.last_checkpoint_lsn <- lsn);
  BP.flush_page t.pool Meta.meta_page_id;
  t.commits_since_checkpoint <- 0;
  let collected =
    if t.ptt = None then 0
    else
      List.length (Imdb_tstamp.Lazy_stamper.garbage_collect t.stamper ~redo_scan_start)
  in
  (* make the GC deletions durable: otherwise a crash forgets them and
     the PTT keeps mappings no version needs *)
  if collected > 0 then Imdb_wal.Wal.flush t.wal;
  M.incr t.metrics M.checkpoints;
  Imdb_obs.Tracer.add_attr sp "swept" (string_of_int swept);
  Imdb_obs.Tracer.add_attr sp "dirty_pages" (string_of_int (List.length dpt));
  Imdb_obs.Tracer.add_attr sp "ptt_posted" (string_of_int posted);
  Imdb_obs.Tracer.add_attr sp "ptt_collected" (string_of_int collected);
  Log.debug (fun m ->
      m "checkpoint at %Ld: swept %d pages, dpt %d, att %d, redo start %Ld, posted %d, GC'd %d"
        lsn swept (List.length dpt) (List.length att) redo_scan_start posted collected);
  lsn

let maybe_auto_checkpoint t =
  if
    t.config.auto_checkpoint_every > 0
    && t.commits_since_checkpoint >= t.config.auto_checkpoint_every
  then ignore (checkpoint t)

(* ------------------------------------------------------------------ *)
(* Table cache                                                          *)
(* ------------------------------------------------------------------ *)

let register_table t ti =
  Hashtbl.replace t.tables ti.Catalog.ti_id ti;
  Hashtbl.replace t.table_ids ti.Catalog.ti_name ti.Catalog.ti_id

let unregister_table t ti =
  Hashtbl.remove t.tables ti.Catalog.ti_id;
  Hashtbl.remove t.table_ids ti.Catalog.ti_name

let table_by_name t name =
  Option.bind (Hashtbl.find_opt t.table_ids name) (Hashtbl.find_opt t.tables)

let table_by_id t id = Hashtbl.find_opt t.tables id

let list_tables t =
  Hashtbl.fold (fun _ ti acc -> ti :: acc) t.tables []
  |> List.sort (fun a b -> compare a.Catalog.ti_id b.Catalog.ti_id)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let make ?metrics ~disk ~log_device ~config ~clock () =
  (* One registry per engine: every component below is pointed at it, so
     two engines in one process never share (or clobber) counters. *)
  let metrics =
    match metrics with Some m -> m | None -> Imdb_obs.Metrics.create ()
  in
  (* Pre-register the hot-path instruments so the exposition shows them
     at zero even before the first eviction sweep / batched commit. *)
  let module Mx = Imdb_obs.Metrics in
  Mx.ensure_counter metrics Mx.buf_clock_sweeps;
  Mx.ensure_counter metrics Mx.keydir_hits;
  Mx.ensure_counter metrics Mx.keydir_misses;
  Mx.ensure_counter metrics Mx.histcache_hits;
  Mx.ensure_counter metrics Mx.histcache_misses;
  Mx.ensure_counter metrics Mx.histcache_evictions;
  Mx.ensure_counter metrics Mx.hist_bytes_written;
  Mx.ensure_counter metrics Mx.compress_raw_bytes;
  Mx.ensure_counter metrics Mx.trace_spans;
  Mx.ensure_counter metrics Mx.trace_drops;
  Mx.ensure_counter metrics Mx.trace_slow_ops;
  Mx.ensure_counter metrics Mx.recovery_torn_pages;
  Mx.ensure_counter metrics Mx.ingest_appends;
  Mx.ensure_counter metrics Mx.ingest_flushes;
  Mx.ensure_counter metrics Mx.ingest_flush_messages;
  Mx.ensure_counter metrics Mx.ingest_flush_pages;
  Mx.ensure_counter metrics Mx.ingest_deferred_splits;
  Mx.ensure_counter metrics Mx.lock_acquires;
  Mx.ensure_counter metrics Mx.lock_conflicts;
  Mx.ensure_counter metrics Mx.lock_deadlocks;
  Mx.ensure_counter metrics Mx.lock_timeouts;
  Mx.ensure_counter metrics Mx.session_rows_read;
  Mx.ensure_counter metrics Mx.session_rows_written;
  Mx.ensure_counter metrics Mx.monitor_samples;
  Mx.ensure_counter metrics Mx.monitor_dropped;
  Mx.set_gauge metrics Mx.recovery_redo_lsn 0;
  Mx.ensure_histogram metrics Mx.h_lock_wait_us;
  Mx.ensure_histogram metrics Mx.h_group_commit_batch;
  Mx.ensure_histogram metrics Mx.h_compress_decode_ns;
  Mx.ensure_histogram metrics Mx.h_ptt_gc_batch;
  Mx.ensure_histogram metrics Mx.h_ingest_flush_run;
  (* The tracer: null when sampling is off, so every instrumentation
     site costs a single branch on the shared disabled instance. *)
  let tracer =
    if config.trace_sampling <= 0 then Imdb_obs.Tracer.null
    else
      Imdb_obs.Tracer.create ~sampling:config.trace_sampling ~metrics ()
  in
  Imdb_storage.Disk.set_metrics disk metrics;
  (* the single read of the on-disk meta page: it names the checkpoint
     recovery's pass starts from, before which the log cannot be torn *)
  let disk_meta = Meta.read_from_disk disk in
  let wal =
    Imdb_wal.Wal.open_device ~metrics
      ?checkpoint_lsn:(Option.map (fun m -> m.Meta.last_checkpoint_lsn) disk_meta)
      log_device
  in
  Imdb_wal.Wal.set_tracer wal tracer;
  let pool = BP.create ~capacity:config.pool_capacity ~metrics ~disk ~wal () in
  let stamper = Imdb_tstamp.Lazy_stamper.create ~metrics () in
  Imdb_tstamp.Lazy_stamper.set_tracer stamper tracer;
  Imdb_tstamp.Lazy_stamper.set_end_of_log stamper (fun () -> Imdb_wal.Wal.next_lsn wal);
  Imdb_tstamp.Lazy_stamper.set_flushed_lsn stamper (fun () ->
      Imdb_wal.Wal.flushed_lsn wal);
  Imdb_tstamp.Lazy_stamper.set_force_log stamper (fun commit_end ->
      Imdb_wal.Wal.flush ~lsn:(Int64.pred commit_end) wal);
  let t =
    {
      disk;
      wal;
      pool;
      gate = Imdb_util.Park.lock ();
      clock;
      locks =
        (let lm = Imdb_lock.Lock_manager.create () in
         Imdb_lock.Lock_manager.set_metrics lm metrics;
         Imdb_lock.Lock_manager.set_tracer lm tracer;
         lm);
      stamper;
      metrics;
      tracer;
      config;
      meta = Option.value disk_meta ~default:(Meta.fresh ());
      ptt = None;
      catalog_tree = None;
      tables = Hashtbl.create 16;
      table_ids = Hashtbl.create 16;
      active = Tid.Table.create 16;
      next_tid = Tid.first;
      cur_txn = None;
      commits_since_checkpoint = 0;
      in_recovery = false;
      after_ptt_post = ignore;
      hist_decoded = Hashtbl.create 64;
      hist_decoded_order = Queue.create ();
      ingest_bufs = Hashtbl.create 8;
      ingest_seq = 0;
      session_stats = Hashtbl.create 8;
      monitor =
        (if config.monitor_interval_ms > 0 then
           Imdb_obs.Monitor.create ~interval_ms:config.monitor_interval_ms metrics
         else Imdb_obs.Monitor.null);
    }
  in
  (* start sampling right away: recovery activity is part of the record *)
  Imdb_obs.Monitor.start t.monitor;
  (* Flush-time lazy stamping: volatile-only resolution, no logging. *)
  BP.set_pre_flush pool (fun page ->
      match P.page_type page with
      | P.P_data ->
          if config.timestamping = Lazy_stamping then
            ignore (Imdb_tstamp.Lazy_stamper.stamp_page_volatile stamper page)
      | P.P_free | P.P_meta | P.P_history | P.P_history_compressed | P.P_index
      | P.P_tsb_index | P.P_heap | P.P_msg_buffer -> ());
  t

(* Fresh database: format page 0, create the catalog and PTT trees, and
   persist a first checkpoint.  Everything is redo-only logged, so a crash
   at any point replays to a consistent (possibly empty) state. *)
let bootstrap t =
  let fr = BP.pin_new t.pool Meta.meta_page_id in
  Fun.protect
    ~finally:(fun () -> BP.unpin t.pool fr)
    (fun () ->
      P.set_page_id (BP.bytes fr) Meta.meta_page_id;
      exec_op t fr ~undoable:false
        (LR.Op_format { page_type = P.P_meta; table_id = 0; level = 0 });
      exec_op t fr ~undoable:false
        (LR.Op_insert { slot = Meta.meta_slot; body = Meta.encode t.meta }));
  let catalog =
    Imdb_btree.Btree.create ~metrics:t.metrics ~tracer:t.tracer ~pool:t.pool
      ~io:(btree_io_for t Meta.catalog_table_id) ~table_id:Meta.catalog_table_id
      ~name:"catalog" ()
  in
  let ptt =
    Imdb_tstamp.Ptt.create ~metrics:t.metrics ~tracer:t.tracer ~pool:t.pool
      ~io:(btree_io_for t Meta.ptt_table_id) ~table_id:Meta.ptt_table_id ()
  in
  update_meta t (fun m ->
      m.Meta.catalog_root <- Imdb_btree.Btree.root catalog;
      m.Meta.ptt_root <- Imdb_tstamp.Ptt.root ptt);
  t.catalog_tree <- Some catalog;
  t.ptt <- Some ptt;
  Imdb_tstamp.Lazy_stamper.set_ptt t.stamper ptt;
  ignore (checkpoint t);
  BP.flush_all t.pool

(* Attach system structures from an existing meta (after recovery). *)
let attach_system t =
  let catalog =
    Imdb_btree.Btree.attach ~metrics:t.metrics ~tracer:t.tracer ~pool:t.pool
      ~io:(btree_io_for t Meta.catalog_table_id) ~root:t.meta.Meta.catalog_root
      ~table_id:Meta.catalog_table_id ~name:"catalog" ()
  in
  let ptt =
    Imdb_tstamp.Ptt.attach ~metrics:t.metrics ~tracer:t.tracer ~pool:t.pool
      ~io:(btree_io_for t Meta.ptt_table_id) ~root:t.meta.Meta.ptt_root
      ~table_id:Meta.ptt_table_id ()
  in
  t.catalog_tree <- Some catalog;
  t.ptt <- Some ptt;
  Imdb_tstamp.Lazy_stamper.set_ptt t.stamper ptt;
  List.iter (register_table t) (Catalog.load_all catalog);
  (* Rebuild the volatile ingest-buffer mirrors from their pages (redo has
     already reconstructed the page images).  Runs before loser rollback,
     which may need to remove a loser's messages through the mirror. *)
  Hashtbl.reset t.ingest_bufs;
  t.ingest_seq <- 0;
  List.iter
    (fun ti ->
      if ti.Catalog.ti_buf_root <> 0 then begin
        let buf =
          BP.with_page t.pool ti.Catalog.ti_buf_root (fun fr ->
              Ingest.of_page ~table_id:ti.Catalog.ti_id (BP.bytes fr))
        in
        Hashtbl.replace t.ingest_bufs ti.Catalog.ti_id buf;
        t.ingest_seq <- max t.ingest_seq (Ingest.max_seq buf)
      end)
    (list_tables t)

let close t =
  (* join the sampler thread first: the domain must stay joinable, and a
     sample racing device close would read a half-torn-down engine *)
  Imdb_obs.Monitor.stop t.monitor;
  (* a clean-shutdown checkpoint: the next open recovers from (nearly)
     the end of the log *)
  (if t.ptt <> None then try ignore (checkpoint t) with _ -> ());
  BP.flush_all t.pool;
  Imdb_wal.Wal.close t.wal;
  t.disk.Imdb_storage.Disk.sync ();
  t.disk.Imdb_storage.Disk.close ()

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

(* The post-mortem payload: everything a human needs to reconstruct what
   the engine was doing when it died — the monitor ring (with a final
   sample taken now, so there is always at least one), the tracer's
   slow-op ring, a consistent lock dump, the per-session stats and the
   full metrics exposition. *)
let flight_report t ~reason =
  let module J = Imdb_obs.Json in
  Imdb_obs.Monitor.sample t.monitor;
  J.Obj
    [
      ("flight_schema_version", J.Int 1);
      ("reason", J.String reason);
      ("metrics_schema_version", J.Int Imdb_obs.Metrics.schema_version);
      ("monitor", Imdb_obs.Monitor.to_json t.monitor);
      ("sessions", sessions_json t);
      ("locks", Imdb_lock.Lock_manager.dump_json t.locks);
      ("traces", Imdb_obs.Tracer.to_json t.tracer);
      ("metrics", Imdb_obs.Metrics.to_json t.metrics);
    ]

(* Best-effort: a failing flight-recorder write must never mask the
   failure (or the recovery) it is documenting. *)
let write_flight_report t ~reason =
  match t.config.flight_recorder_dir with
  | None -> None
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let name =
          Printf.sprintf "flight_%s_%d.json" reason
            (int_of_float (Unix.gettimeofday () *. 1e3))
        in
        let path = Filename.concat dir name in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Imdb_obs.Json.to_string (flight_report t ~reason)));
        Log.info (fun m -> m "flight recorder: wrote %s" path);
        Some path
      with e ->
        Log.warn (fun m ->
            m "flight recorder: failed to write report: %s" (Printexc.to_string e));
        None)
