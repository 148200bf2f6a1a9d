(* Crash recovery (ARIES-style): one forward pass over the log, then undo.

   Recovery reads the checkpoint record the meta page names
   ([Wal.read_at]): its active-transaction table (ATT), dirty-page table
   (DPT), TID counter, clock floor and redo start.  The redo start is
   the redo-scan start the checkpoint computed after its sweep — the
   eldest recLSN then in the pool, at most about one interval before the
   checkpoint, since each checkpoint sweeps the pages dirty since before
   the previous one — and no later than any recLSN in the recorded DPT.
   One pass then runs from the redo start to the end of log.  Every
   frame in it feeds redo through the DPT, and every Commit record in it
   whose transaction wrote versions seeds the VTT.  From the checkpoint
   on, the same callback first does the analysis bookkeeping: ATT, DPT at
   the frame's own LSN (where redo's filter starts a page first dirtied
   after the checkpoint anyway), TID and clock.  Below the checkpoint a
   frame that fails its CRC stops the open ([Wal.Corrupt_frame]); from it
   on, the first one is the torn tail where the pass ends the log.  Only
   an open with no usable meta page and the rebuild of a torn page
   ([rebuild_page_from_log], which stops at the same tail) read from
   LSN 0.

   The redo-scan start point is also the quantity the paper's PTT
   garbage collection is keyed to: the GC may discard a mapping only
   once that point passes the transaction's stamping-complete LSN.
   Recovery here never needs a discarded mapping: every version that
   could still carry a TID on disk, or get it back through redo, has its
   (TID, ts) either in the PTT (a checkpoint posts every mapping
   committed below its redo start that its GC keeps) or among the Commit
   records at or after that redo start, which the pass seeds into the
   VTT when the record says the transaction wrote versions.  A later
   checkpoint posts those once its redo-scan start passes them, and
   forgets them.  A torn page rebuilt from the whole log is stamped from
   the Commit records of that same scan, since its replay resurrects
   every TID the page ever held.

   Undo uses the guarded logical rollback of [Txnmgr]: losers' version
   inserts and B-tree updates are located through the live structures and
   reverted only when still present, making recovery idempotent across
   repeated crashes. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module LR = Imdb_wal.Log_record
module E = Engine
module Mx = Imdb_obs.Metrics

let recovery_redo = Mx.counter_of Mx.recovery_redo
let recovery_redo_lsn = Mx.gauge_of Mx.recovery_redo_lsn
let recovery_torn_pages = Mx.counter_of Mx.recovery_torn_pages

let log_src = Logs.Src.create "imdb.recovery" ~doc:"Immortal DB crash recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Nothing_durable

type pass = {
  mutable att : (Tid.t * int64) list; (* losers so far: tid -> last_lsn *)
  mutable dpt : (int * int64) list; (* page -> recLSN *)
  mutable max_tid : Tid.t;
  mutable max_ts : Ts.t;
  mutable commits : (Tid.t * Ts.t * int64) list;
      (* the version writers' Commit records from the redo start, with
         their LSNs *)
}

let att_update a tid ~lsn = a.att <- (tid, lsn) :: List.remove_assoc tid a.att

let dpt_add a page_id ~lsn =
  if not (List.mem_assoc page_id a.dpt) then a.dpt <- (page_id, lsn) :: a.dpt

let observe_tid a tid = if Tid.compare tid a.max_tid > 0 then a.max_tid <- tid
let observe_ts a ts = if Ts.compare ts a.max_ts > 0 then a.max_ts <- ts

(* The analysis bookkeeping for a frame at or after the checkpoint.  A
   transaction's first Update puts it in the ATT (there is no Begin
   record); its Commit, or the End that closes a finished rollback, takes
   it out.  An interrupted abort stays in, to be undone again from its
   Update chain. *)
let analyze_frame a lsn = function
  | LR.Checkpoint { next_tid; clock; _ } ->
      observe_tid a (Tid.of_int64 (Int64.pred (Tid.to_int64 next_tid)));
      observe_ts a clock
  | LR.Update { tid; page_id; _ } ->
      observe_tid a tid;
      att_update a tid ~lsn;
      dpt_add a page_id ~lsn
  | LR.Redo_only { page_id; _ } -> dpt_add a page_id ~lsn
  | LR.Commit { tid; ts; _ } ->
      observe_tid a tid;
      observe_ts a ts;
      a.att <- List.remove_assoc tid a.att
  | LR.End { tid } ->
      observe_tid a tid;
      a.att <- List.remove_assoc tid a.att

(* --- the pass: analysis and redo ------------------------------------------------ *)

(* Rebuild a torn page wholesale from the log.  Possible because the log
   is never truncated and every page's life begins with a logged
   Op_format: replaying every operation on [page_id] from LSN 0 over a
   zeroed frame reconstructs its exact latest logged state (unlogged
   timestamp propagation is lost and will simply happen again).  This is
   the recovery path for torn writes that full-page-image logging does
   not cover. *)
let rebuild_page_from_log eng page_id =
  Log.warn (fun m -> m "page %d is torn; rebuilding it from the full log" page_id);
  Mx.incr eng.E.metrics recovery_torn_pages;
  let fr = BP.pin_new eng.E.pool page_id in
  let page = BP.bytes fr in
  P.set_page_id page page_id;
  let commits = Tid.Table.create 64 in
  Imdb_wal.Wal.iter_from eng.E.wal ~from_lsn:0L (fun lsn body ->
      match body with
      | LR.Update { page_id = pid; op; _ } | LR.Redo_only { page_id = pid; op } ->
          if pid = page_id then begin
            LR.redo_op page op;
            BP.mark_dirty_logged eng.E.pool fr ~lsn
          end
      | LR.Commit { tid; ts; _ } -> Tid.Table.replace commits tid ts
      | LR.End _ | LR.Checkpoint _ -> ());
  (* The replay brought back every TID the page's versions ever held,
     also those of transactions whose mappings GC has forgotten since
     their stamps reached this page on disk.  Restore those stamps now:
     the Commit records just scanned are durable, and a loser's TID
     stays for undo. *)
  if P.page_type page = P.P_data then
    ignore
      (Imdb_version.Vpage.stamp page
         ~resolve:(fun tid ->
           match Tid.Table.find_opt commits tid with
           | Some ts -> Imdb_version.Vpage.Committed ts
           | None -> Imdb_version.Vpage.Active)
         ~on_stamp:(fun _ _ -> ()));
  fr

(* Pin a page for redo: it may never have reached disk (rebuilt by a
   Format/Image record), or be torn (detected by checksum and acceptable
   only if this op rebuilds it wholesale).  [`Fresh] is a zeroed frame
   for the rebuilding op. *)
let pin_for_redo eng page_id ~rebuilds =
  let fresh () =
    let fr = BP.pin_new eng.E.pool page_id in
    P.set_page_id (BP.bytes fr) page_id;
    fr
  in
  if BP.is_cached eng.E.pool page_id then `Frame (BP.pin eng.E.pool page_id)
  else if eng.E.disk.Imdb_storage.Disk.page_exists page_id then (
    try `Frame (BP.pin eng.E.pool page_id)
    with BP.Corrupt_page _ ->
      if rebuilds then begin
        (* torn, but the op about to replay rebuilds the page wholesale *)
        Mx.incr eng.E.metrics recovery_torn_pages;
        `Fresh (fresh ())
      end
      else `Frame (rebuild_page_from_log eng page_id))
  else if rebuilds then `Fresh (fresh ())
  else `Missing

let op_rebuilds = function
  | LR.Op_format _ | LR.Op_image _ -> true
  | LR.Op_insert _ | LR.Op_delete _ | LR.Op_replace _ | LR.Op_patch _ | LR.Op_header _
  | LR.Op_kv_insert _ | LR.Op_kv_replace _ | LR.Op_kv_delete _ | LR.Op_version_insert _
  | LR.Op_msg_append _ | LR.Op_version_batch _ ->
      false

(* The one pass over the log, from the redo start to the end of log.  It
   starts from the tables of the checkpoint the meta page names, or from
   empty ones at LSN 0 when it names none; a meta page naming an LSN that
   holds no checkpoint is refused rather than reissue a TID or a
   timestamp counted from the tail alone.  Returns the tables and
   (redo_start, LSN of the last record applied).  The [recovery.redo_lsn]
   gauge tracks the scan position record by record, so an observer (or a
   post-mortem of a crashed recovery) sees monotone progress. *)
let pass eng ~checkpoint_lsn =
  let a = { att = []; dpt = []; max_tid = Tid.invalid; max_ts = Ts.zero; commits = [] } in
  let redo_start =
    if Int64.compare checkpoint_lsn 0L > 0 then
      match Imdb_wal.Wal.read_at eng.E.wal checkpoint_lsn with
      | LR.Checkpoint { att; dpt; redo_start; _ } ->
          a.att <- att;
          a.dpt <- dpt;
          redo_start
      | _ | exception Imdb_wal.Wal.Corrupt_frame _ ->
          failwith
            (Printf.sprintf "Recovery: the meta page names LSN %Ld, which holds no checkpoint"
               checkpoint_lsn)
    else 0L
  in
  let last_applied = ref redo_start in
  Imdb_wal.Wal.iter_from eng.E.wal ~from_lsn:redo_start (fun lsn body ->
      if Int64.compare lsn checkpoint_lsn >= 0 then analyze_frame a lsn body;
      (match body with
      | LR.Commit { tid; ts; wrote_versions = true } -> a.commits <- (tid, ts, lsn) :: a.commits
      | _ -> ());
      let apply page_id op =
        match List.assoc_opt page_id a.dpt with
        | Some rec_lsn when Int64.compare lsn rec_lsn >= 0 -> (
            match pin_for_redo eng page_id ~rebuilds:(op_rebuilds op) with
            | `Missing ->
                failwith
                  (Printf.sprintf "Recovery: page %d missing for redo at %Ld" page_id lsn)
            | (`Frame fr | `Fresh fr) as pinned ->
                Fun.protect
                  ~finally:(fun () -> BP.unpin eng.E.pool fr)
                  (fun () ->
                    let page = BP.bytes fr in
                    (* a fresh frame's page LSN of 0 says nothing: the op
                       that rebuilds it may itself sit at LSN 0 (the meta
                       page's format, replayed when a torn meta page
                       sends redo back to the start of the log) *)
                    let fresh = match pinned with `Fresh _ -> true | `Frame _ -> false in
                    if fresh || Int64.compare (P.lsn page) lsn < 0 then begin
                      LR.redo_op page op;
                      Mx.incr eng.E.metrics recovery_redo;
                      last_applied := lsn;
                      Mx.set_gauge eng.E.metrics recovery_redo_lsn (Int64.to_int lsn);
                      BP.mark_dirty_logged eng.E.pool fr ~lsn
                    end))
        | _ -> ()
      in
      match body with
      | LR.Update { page_id; op; _ } | LR.Redo_only { page_id; op } -> apply page_id op
      | LR.Commit _ | LR.End _ | LR.Checkpoint _ -> ());
  (a, redo_start, !last_applied)

(* --- the full open-time protocol ---------------------------------------------- *)

let redo_records eng = string_of_int (Mx.get eng.E.metrics Mx.recovery_redo)

(* The recovery span (and its per-phase children) close on exception too
   — [Tracer.with_span] is [Fun.protect]-based. *)
let recover eng =
  let module Tr = Imdb_obs.Tracer in
  eng.E.in_recovery <- true;
  Fun.protect
    ~finally:(fun () -> eng.E.in_recovery <- false)
    (fun () ->
      Tr.with_span eng.E.tracer "recovery" @@ fun sp ->
      (* the meta page as the open read it from disk, or a fresh one
         (LSN 0) when it was missing or torn *)
      let checkpoint_lsn = eng.E.meta.Meta.last_checkpoint_lsn in
      let a =
        Tr.with_span eng.E.tracer "recovery.redo" (fun rsp ->
            let a, redo_start, redo_end = pass eng ~checkpoint_lsn in
            Log.info (fun m ->
                m "recovery: checkpoint %Ld, %d in-flight txns, %d dirty pages, %d commits known"
                  checkpoint_lsn (List.length a.att) (List.length a.dpt)
                  (List.length a.commits));
            let count l = string_of_int (List.length l) in
            Tr.add_attr rsp "att" count a.att;
            Tr.add_attr rsp "dirty_pages" count a.dpt;
            Tr.add_attr rsp "commits" count a.commits;
            Tr.add_attr rsp "redo_start" Int64.to_string redo_start;
            Tr.add_attr rsp "redo_end" Int64.to_string redo_end;
            Tr.add_attr rsp "records" redo_records eng;
            (* scrub: a write torn by the crash may sit on a page the redo
               scan never visits (e.g. dirtied only by unlogged stamping);
               detect by checksum and rebuild from the log *)
            let scrubbed = ref 0 in
            for pid = 0 to eng.E.disk.Imdb_storage.Disk.page_count () - 1 do
              if
                eng.E.disk.Imdb_storage.Disk.page_exists pid
                && not (BP.is_cached eng.E.pool pid)
                && not (P.verify (eng.E.disk.Imdb_storage.Disk.read_page pid))
              then begin
                incr scrubbed;
                let fr = rebuild_page_from_log eng pid in
                BP.unpin eng.E.pool fr;
                BP.flush_page eng.E.pool pid
              end
            done;
            Tr.add_attr rsp "scrubbed" string_of_int !scrubbed;
            a)
      in
      (* the redone meta page is authoritative now *)
      if
        eng.E.disk.Imdb_storage.Disk.page_exists Meta.meta_page_id
        || List.mem Meta.meta_page_id (BP.cached_page_ids eng.E.pool)
      then
        BP.with_page eng.E.pool Meta.meta_page_id (fun fr ->
            eng.E.meta <- Meta.decode (P.read_cell (BP.bytes fr) Meta.meta_slot))
      else if Int64.equal (Imdb_wal.Wal.flushed_lsn eng.E.wal) 0L then raise Nothing_durable
      else failwith "Recovery: no database metadata on disk or in the log";
      (* clock floor and TID counter must move past everything observed *)
      Imdb_clock.Clock.observe eng.E.clock a.max_ts;
      eng.E.next_tid <- Tid.next a.max_tid;
      E.attach_system eng;
      (* the mappings of the version writers committed since the redo
         start: the first checkpoint whose redo-scan start passes one
         posts it to the PTT and forgets it *)
      List.iter
        (fun (tid, ts, lsn) -> Imdb_tstamp.Vtt.seed_from_log (E.vtt eng) tid ts ~lsn)
        a.commits;
      (* roll back losers *)
      let losers = List.length a.att in
      Tr.with_span eng.E.tracer "recovery.undo" (fun usp ->
          List.iter (fun (tid, last_lsn) -> Txnmgr.rollback_loser eng ~tid ~last_lsn) a.att;
          Tr.add_attr usp "losers" string_of_int losers);
      Log.info (fun m -> m "recovery: rolled back %d losers" losers);
      Tr.add_attr sp "losers" string_of_int losers;
      Tr.add_attr sp "redo_records" redo_records eng;
      (* a fresh checkpoint caps the next recovery's work *)
      ignore (E.checkpoint eng);
      (* crash evidence (losers rolled back, or torn writes scrubbed)
         triggers the flight recorder when a report dir is configured:
         the post-mortem captures what this engine can still see of the
         crashed run — recovery counters, loser rollbacks, slow ops *)
      if losers > 0 || Mx.get eng.E.metrics Mx.recovery_torn_pages > 0 then
        ignore (E.write_flight_report eng ~reason:"recovery"))
