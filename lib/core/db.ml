(* The public face of the engine — what a downstream application links
   against.  Wraps engine + transaction plumbing with a typed row API on
   top of table schemas, plus database lifecycle (open with recovery,
   close, crash simulation for tests).

   Every operation below runs under the engine's session gate
   ([Engine.exclusively]), so one [Db.t] may be driven from any number of
   domains — one session each, see [Session].  Single-session callers pay
   two uncontended mutex operations per call and observe behavior (and
   metrics) identical to the pre-concurrency engine. *)

module Ts = Imdb_clock.Timestamp
module E = Engine

type t = {
  eng : E.t;
  disk : Imdb_storage.Disk.t;
  log_device : Imdb_wal.Wal.Device.t;
}

let ex t f = E.exclusively t.eng f

type txn = E.txn
type isolation = E.isolation = Serializable | Snapshot_isolation | As_of of Ts.t

type mode = Catalog.table_mode =
  | Immortal
  | Snapshot_table
  | Conventional

exception No_such_table of string

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

(* Open (or create) a database over explicit devices.  Used directly by
   crash tests, which reopen the same in-memory devices after dropping
   volatile state. *)
let open_devices ?metrics ?(config = E.default_config) ?clock ~disk ~log_device () =
  let clock = match clock with Some c -> c | None -> Imdb_clock.Clock.create_wall () in
  let eng = E.make ?metrics ~disk ~log_device ~config ~clock () in
  let fresh =
    (not (disk.Imdb_storage.Disk.page_exists Meta.meta_page_id))
    && log_device.Imdb_wal.Wal.Device.size () = 0
  in
  if fresh then E.bootstrap eng else Recovery.recover eng;
  { eng; disk; log_device }

(* A throwaway in-memory database. *)
let open_memory ?(config = E.default_config) ?clock () =
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let log_device = Imdb_wal.Wal.Device.in_memory () in
  open_devices ~config ?clock ~disk ~log_device ()

(* A file-backed database in directory [dir]: data pages in "data.imdb",
   the log in "wal.imdb". *)
let open_dir ?(config = E.default_config) ?clock dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let disk =
    Imdb_storage.Disk.file ~path:(Filename.concat dir "data.imdb")
      ~page_size:config.E.page_size ()
  in
  let log_device = Imdb_wal.Wal.Device.file ~path:(Filename.concat dir "wal.imdb") in
  open_devices ~config ?clock ~disk ~log_device ()

let close t = ex t (fun () -> E.close t.eng)
let checkpoint t = ex t (fun () -> ignore (E.checkpoint t.eng))
let engine t = t.eng

(* The devices this database was opened over.  Crash harnesses need them
   to reopen after an open/recovery attempt itself crashed (in which case
   there is no live handle to call [crash_and_reopen] on). *)
let devices t = (t.disk, t.log_device)
let metrics t = t.eng.E.metrics
let tracer t = t.eng.E.tracer

exception Vacuum_blocked of string

(* Vacuum (paper Section 2.2): after a crash, PTT entries whose volatile
   reference counts were lost can never be collected by the normal rule
   ("we simply end up with certain PTT entries that cannot be deleted").
   The paper's remedy is to force timestamping to completion — it framed
   this as forcing pages to time-split; the operative effect is that
   every committed version carries its timestamp and is durable, after
   which no PTT entry can ever be needed again.

   So: stamp every version in every current data page of every immortal
   table (history pages are fully stamped by construction), force the
   stamping to disk, checkpoint, and drop every PTT entry.  Requires a
   quiet system (no active transactions). *)
let vacuum t =
  ex t @@ fun () ->
  let eng = t.eng in
  if Imdb_clock.Tid.Table.length eng.E.active > 0 then
    raise (Vacuum_blocked "active transactions");
  List.iter
    (fun ti ->
      (* snapshot tables too: a transaction that wrote both a snapshot and
         an immortal table resolves its snapshot-side versions through the
         same (about to be deleted) mapping *)
      if Table.is_versioned ti then begin
        (* buffered messages must land first: their versions need the
           VTT/PTT mappings this vacuum is about to delete *)
        Table.flush_ingest eng ti;
        List.iter
          (fun (_, _, pid) ->
            Imdb_buffer.Buffer_pool.with_page eng.E.pool pid (fun fr ->
                E.stamp_page eng fr))
          (Table.router_ranges eng ti)
      end)
    (E.list_tables eng);
  Imdb_buffer.Buffer_pool.flush_all eng.E.pool;
  ignore (E.checkpoint eng);
  (* every mapping is now unnecessary: versions carry their timestamps *)
  let ptt = E.ptt_exn eng in
  let victims = ref [] in
  Imdb_tstamp.Ptt.iter ptt (fun tid _ -> victims := tid :: !victims);
  List.iter
    (fun tid ->
      ignore (Imdb_tstamp.Ptt.delete ptt tid);
      Imdb_tstamp.Vtt.drop (E.vtt eng) tid)
    !victims;
  List.length !victims

(* Simulate a crash: drop every volatile structure and reopen over the
   same devices, running recovery.  (In-memory devices survive because the
   OCaml values are shared; file devices reopen from the OS.) *)
let crash_and_reopen ?config ?clock t =
  ex t (fun () ->
      Imdb_wal.Wal.crash_volatile t.eng.E.wal;
      Imdb_buffer.Buffer_pool.drop_all t.eng.E.pool);
  (* the dead engine's sampler thread must not keep running (nor keep
     its domain unjoinable) after the "crash" *)
  Imdb_obs.Monitor.stop t.eng.E.monitor;
  let config = Option.value config ~default:t.eng.E.config in
  open_devices ~config ?clock ~disk:t.disk ~log_device:t.log_device ()

(* ------------------------------------------------------------------ *)
(* Transactions                                                          *)
(* ------------------------------------------------------------------ *)

let begin_txn ?(isolation = Serializable) t =
  ex t (fun () -> Txnmgr.begin_txn t.eng ~isolation)

let commit t txn = ex t (fun () -> Txnmgr.commit t.eng txn)
let abort t txn = ex t (fun () -> Txnmgr.abort t.eng txn)

(* Run [f] in a transaction: commit on success, abort on any exception. *)
let with_txn ?isolation t f =
  let txn = begin_txn ?isolation t in
  match f txn with
  | v ->
      ignore (commit t txn);
      v
  | exception e ->
      (try abort t txn with E.Txn_finished -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* DDL (autocommitted)                                                  *)
(* ------------------------------------------------------------------ *)

let create_table t ~name ~mode ~schema =
  with_txn t (fun txn ->
      ex t (fun () ->
          E.with_txn t.eng txn (fun () ->
              ignore (Table.create t.eng ~name ~mode ~schema))))

let drop_table t name =
  with_txn t (fun txn ->
      ex t (fun () -> E.with_txn t.eng txn (fun () -> Table.drop t.eng name)))

(* ALTER TABLE name ENABLE SNAPSHOT (paper §4.1), autocommitted.  On any
   failure the transaction rolls the catalog back; the in-memory table
   cache is restored to the original descriptor as well. *)
let enable_snapshot t ~table =
  match ex t (fun () -> E.table_by_name t.eng table) with
  | None -> raise (No_such_table table)
  | Some original -> (
      try
        with_txn t (fun txn ->
            ex t (fun () ->
                E.with_txn t.eng txn (fun () ->
                    Table.enable_snapshot t.eng original)))
      with e ->
        E.register_table t.eng original;
        raise e)

let table_info t name =
  match E.table_by_name t.eng name with
  | Some ti -> ti
  | None -> raise (No_such_table name)

let list_tables t = ex t (fun () -> E.list_tables t.eng)

(* ------------------------------------------------------------------ *)
(* Raw key/payload operations                                           *)
(* ------------------------------------------------------------------ *)

let insert t txn ~table ~key ~payload =
  ex t (fun () -> Table.insert t.eng txn (table_info t table) ~key ~payload)

let update t txn ~table ~key ~payload =
  ex t (fun () -> Table.update t.eng txn (table_info t table) ~key ~payload)

let upsert t txn ~table ~key ~payload =
  ex t (fun () -> Table.upsert t.eng txn (table_info t table) ~key ~payload)

let delete t txn ~table ~key =
  ex t (fun () -> Table.delete t.eng txn (table_info t table) ~key)

(* Row-read accounting: every row a read operation delivers to the
   caller bumps the transaction's tally (folded into session stats when
   it finishes).  Counting sits here, in the public wrappers, so the
   engine's internal reads (recovery, stamping, flushes) never inflate a
   session's numbers. *)
let count_read txn n = txn.E.tx_rows_read <- txn.E.tx_rows_read + n

let counted txn f k p =
  count_read txn 1;
  f k p

let get t txn ~table ~key =
  ex t (fun () ->
      let r = Table.read t.eng txn (table_info t table) ~key in
      if r <> None then count_read txn 1;
      r)

let scan ?lo ?hi t txn ~table f =
  ex t (fun () -> Table.scan t.eng ?lo ?hi txn (table_info t table) (counted txn f))

let scan_as_of ?lo ?hi t txn ~table ~ts f =
  ex t (fun () ->
      Table.scan_as_of t.eng ?lo ?hi txn (table_info t table) ~t:ts
        (counted txn f))

let history t txn ~table ~key =
  ex t (fun () ->
      let vs = Table.history t.eng txn (table_info t table) ~key in
      count_read txn (List.length vs);
      vs)

(* ------------------------------------------------------------------ *)
(* Typed row operations                                                 *)
(* ------------------------------------------------------------------ *)

(* Schema encode/decode around the raw operations above, which do the
   lookup and the row accounting.  The gate is reentrant: holding it
   across the schema lookup keeps a concurrent DDL statement from
   changing the table between the lookup and the operation. *)

let schema t table = (table_info t table).Catalog.ti_schema

let write_row op t txn ~table row =
  ex t @@ fun () ->
  let s = schema t table in
  op t txn ~table ~key:(Schema.key_of_row s row) ~payload:(Schema.payload_of_row s row)

let insert_row t txn ~table row = write_row insert t txn ~table row
let update_row t txn ~table row = write_row update t txn ~table row
let upsert_row t txn ~table row = write_row upsert t txn ~table row
let delete_row t txn ~table ~key = delete t txn ~table ~key:(Schema.encode_key key)

let get_row t txn ~table ~key =
  ex t @@ fun () ->
  let key = Schema.encode_key key in
  Option.map
    (fun payload -> Schema.row_of_parts (schema t table) ~key ~payload)
    (get t txn ~table ~key)

(* The rows a raw scan delivers, in scan order. *)
let collect_rows t ~table scan =
  ex t @@ fun () ->
  let s = schema t table in
  let out = ref [] in
  scan (fun key payload -> out := Schema.row_of_parts s ~key ~payload :: !out);
  List.rev !out

let scan_rows ?lo ?hi t txn ~table = collect_rows t ~table (scan ?lo ?hi t txn ~table)

(* Typed key-range scan: rows with [lo <= key < hi] (either bound
   optional), respecting the transaction's isolation. *)
let scan_rows_range ?low ?high t txn ~table =
  let lo = Option.map Schema.encode_key low in
  let hi = Option.map Schema.encode_key high in
  scan_rows ?lo ?hi t txn ~table

let scan_rows_as_of t txn ~table ~ts = collect_rows t ~table (scan_as_of t txn ~table ~ts)

let history_rows t txn ~table ~key =
  ex t @@ fun () ->
  let key = Schema.encode_key key in
  let s = schema t table in
  List.map
    (fun (ts, payload) ->
      (ts, Option.map (fun payload -> Schema.row_of_parts s ~key ~payload) payload))
    (history t txn ~table ~key)

(* ------------------------------------------------------------------ *)
(* Convenience: single-statement autocommit                             *)
(* ------------------------------------------------------------------ *)

let exec ?isolation t f = with_txn ?isolation t f

(* AS OF convenience: run a read-only function at a past time. *)
let as_of t ts f = with_txn ~isolation:(As_of ts) t f

(* ------------------------------------------------------------------ *)
(* Sessions: one per thread-of-control                                  *)
(* ------------------------------------------------------------------ *)

(* The multi-core topology: open one [Db.t], hand each domain its own
   session, drive transactions through it.  Sessions are cheap handles —
   the engine's session gate does the synchronization — but they make
   ownership explicit (a txn begun on a session is that session's to
   finish) and give each thread-of-control an id for observability.

   Concurrency behavior is governed by the engine config: a conflicting
   session parks for up to [lock_wait_timeout_ms] until the holder
   releases, with deadlock detection and timeout-victim abort; at 0 it
   gives up at once, as the single-session engine always has. *)
module Session = struct
  type db = t

  type t = { db : db; handle : E.session }

  let id s = s.handle.E.s_id

  (* Transactions begun through a session carry its id, so their tallies
     land in this session's row of the SESSIONS exposition (anonymous
     [Db.begin_txn] transactions pool under id 0). *)
  let begin_txn ?(isolation = Serializable) s =
    ex s.db (fun () ->
        Txnmgr.begin_txn ~session:s.handle.E.s_id s.db.eng ~isolation)

  let commit s txn = commit s.db txn
  let abort s txn = abort s.db txn

  let with_txn ?isolation s f =
    let txn = begin_txn ?isolation s in
    match f txn with
    | v ->
        ignore (commit s txn);
        v
    | exception e ->
        (try abort s txn with E.Txn_finished -> ());
        raise e

  let insert s txn ~table ~key ~payload = insert s.db txn ~table ~key ~payload
  let update s txn ~table ~key ~payload = update s.db txn ~table ~key ~payload
  let upsert s txn ~table ~key ~payload = upsert s.db txn ~table ~key ~payload
  let delete s txn ~table ~key = delete s.db txn ~table ~key
  let get s txn ~table ~key = get s.db txn ~table ~key
  let scan ?lo ?hi s txn ~table f = scan ?lo ?hi s.db txn ~table f

  let scan_as_of ?lo ?hi s txn ~table ~ts f =
    scan_as_of ?lo ?hi s.db txn ~table ~ts f

  let as_of s ts f = with_txn ~isolation:(As_of ts) s f
end

let session t = { Session.db = t; handle = E.session t.eng }

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let sessions_json t = ex t (fun () -> E.sessions_json t.eng)

(* No gate: the dump synchronizes on the lock manager's own mutexes, so
   it works even while every session is parked or busy — which is
   exactly when someone wants to look at it. *)
let locks_json t = Imdb_lock.Lock_manager.dump_json t.eng.E.locks
let monitor t = t.eng.E.monitor
let monitor_json t = Imdb_obs.Monitor.to_json t.eng.E.monitor

let write_flight_report t ~reason =
  ex t (fun () -> E.write_flight_report t.eng ~reason)
