(* Transaction lifecycle: commit processing and rollback.

   Commit (Section 2.2, stage III): choose the commit timestamp — late,
   so it agrees with serialization order — and write the commit record;
   under lazy timestamping that is all, no updated record is revisited.
   The record carries (TID, timestamp), which answers for the mapping
   until a checkpoint posts it to the PTT (see [Engine.checkpoint]), so
   the paper's per-commit PTT update leaves the commit path.  Under
   eager timestamping every written version is revisited, stamped and
   logged before the commit record — the strategy the paper rejects and
   we keep as an ablation baseline.

   Rollback uses guarded logical undo: each undoable log record's effect
   is located through the table's router/tree *at rollback time* (time
   splits and key splits may have moved it) and reverted only if still
   present.  All undo effects are themselves logged redo-only, and the
   guards make re-undoing after a crash idempotent, which replaces
   textbook CLR chains in this engine. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module P = Imdb_storage.Page
module R = Imdb_storage.Record
module BP = Imdb_buffer.Buffer_pool
module LR = Imdb_wal.Log_record
module V = Imdb_version.Vpage
module E = Engine

let begin_txn = E.begin_txn

(* --- commit ---------------------------------------------------------------- *)

let release eng txn =
  Imdb_lock.Lock_manager.release_all eng.E.locks txn.E.tx_tid;
  Tid.Table.remove eng.E.active txn.E.tx_tid;
  txn.E.tx_state <- E.Finished

(* Commit; returns the commit timestamp, or [None] for read-only
   transactions (which leave no trace at all). *)
let commit eng txn =
  E.check_running txn;
  if E.is_read_only txn then begin
    (* nothing logged, nothing timestamped: vanish quietly *)
    Imdb_tstamp.Vtt.drop (E.vtt eng) txn.E.tx_tid;
    release eng txn;
    E.fold_txn_stats eng txn ~committed:true ();
    None
  end
  else begin
    Imdb_obs.Tracer.with_span eng.E.tracer "txn.commit" @@ fun sp ->
    let ts = Imdb_clock.Clock.next_commit_timestamp eng.E.clock in
    txn.E.tx_commit_ts <- Some ts;
    if eng.E.config.E.timestamping = E.Eager_stamping then
      Table.eager_stamp_writes eng txn ~ts;
    E.ensure_begun eng txn;
    (* a version still carrying the TID is what makes recovery seed the
       mapping from this record *)
    let wrote_versions =
      match Imdb_tstamp.Vtt.find (E.vtt eng) txn.E.tx_tid with
      | Some e -> e.Imdb_tstamp.Vtt.refcount > 0
      | None -> false
    in
    (* [batch_pos]: our position in the forming group-commit batch, 1 =
       leader (our flush will pay the sync), k = riding a batch of k so
       far *)
    let commit_lsn, batch_pos =
      Imdb_wal.Wal.append_commit eng.E.wal ~tid:txn.E.tx_tid ~ts ~wrote_versions
    in
    (* The VTT commit — the visibility switch — happens here, in the same
       gate section that issued the timestamp, so concurrent sessions can
       never observe a timestamp-ordered commit before an earlier one.
       Visibility precedes durability by the one flush below: a
       concurrent session may see this commit before its record is
       synced, which is why access-path stamping forces the log
       ({!Imdb_tstamp.Lazy_stamper.resolve_for_stamping}).  (The flush
       itself does not append, so [end_of_log] is the same either side
       of it.) *)
    Imdb_tstamp.Vtt.commit (E.vtt eng) txn.E.tx_tid ~ts
      ~end_of_log:(Imdb_wal.Wal.next_lsn eng.E.wal);
    (* the fsync is where committing sessions overlap: the gate is
       released around it, so concurrent commits batch on the WAL's
       flush and share one device sync (this transaction's locks stay
       held — 2PL conflicts are still excluded).  Flushing through our
       own commit record — not the whole buffered tail — lets a
       committer whose record a concurrent leader's sync already covered
       return without paying a second sync for records newer than its
       own; serially the commit record is the end of the buffered tail,
       so the two are the same flush. *)
    Fun.protect ~finally:(Imdb_util.Park.suspend eng.E.gate) (fun () ->
        Imdb_wal.Wal.flush ~lsn:commit_lsn eng.E.wal);
    (* the flush's return is the durability acknowledgment: every commit
       [commit] returns is in the durable log *)
    txn.E.tx_durable <- true;
    ignore (Imdb_wal.Wal.append eng.E.wal (LR.End { tid = txn.E.tx_tid }));
    release eng txn;
    let m = eng.E.metrics in
    Imdb_obs.Metrics.incr m Imdb_obs.Metrics.txn_commits;
    Imdb_obs.Metrics.observe m Imdb_obs.Metrics.h_commit_writes
      (List.length txn.E.tx_writes);
    let latency_ticks =
      if Ts.compare txn.E.tx_snapshot Ts.zero > 0 then begin
        let l = Int64.to_int (Int64.sub (Ts.ttime ts) (Ts.ttime txn.E.tx_snapshot)) in
        Imdb_obs.Metrics.observe m Imdb_obs.Metrics.h_commit_latency_ms l;
        Some l
      end
      else None
    in
    E.fold_txn_stats eng txn ~committed:true ?latency_ticks ~batch_pos ();
    eng.E.commits_since_checkpoint <- eng.E.commits_since_checkpoint + 1;
    Imdb_obs.Tracer.add_attr sp "tid" (Tid.to_string txn.E.tx_tid);
    Imdb_obs.Tracer.add_attr sp "ts" (Ts.to_string ts);
    Imdb_obs.Tracer.add_attr sp "writes"
      (string_of_int (List.length txn.E.tx_writes));
    (* an auto-checkpoint (and the PTT GC inside it) shows up as a child
       of the commit that tripped it — exactly the causality the tracer
       exists to surface *)
    E.maybe_auto_checkpoint eng;
    Some ts
  end

(* --- rollback --------------------------------------------------------------- *)

let tree_for eng table_id =
  if table_id = Meta.catalog_table_id then Some (E.catalog_exn eng)
  else
    match E.table_by_id eng table_id with
    | Some ti when ti.Catalog.ti_mode = Catalog.Conventional ->
        Some (Table.conv_tree eng ti)
    | _ -> None

let key_of_leaf_cell body = fst (Imdb_btree.Btree.decode_leaf_cell body)

(* Remove [txn]'s version of [key] if it is still the current one (it
   is unstamped until commit), and restore the predecessor to currency if
   it is local — wherever time and key splits have taken them since the
   write was logged. *)
let undo_version eng txn ti ~key =
  let pid, _, _ = Table.locate eng ti ~key in
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      match V.find_current page ~key with
      | Some slot when R.in_page_ttime page slot = Tid.Unstamped txn.E.tx_tid ->
          let vp = R.in_page_vp page slot in
          let vp_local =
            vp <> R.no_vp && R.in_page_flags page slot land R.f_vp_in_history = 0
          in
          E.exec_op eng fr ~undoable:false (LR.Op_delete { slot });
          Imdb_tstamp.Vtt.decr_ref_rollback (E.vtt eng) txn.E.tx_tid;
          if vp_local then
            let old_flags = R.in_page_flags page vp in
            let new_flags = old_flags land lnot R.f_non_current in
            if new_flags <> old_flags then
              E.exec_op eng fr ~undoable:false
                (LR.Op_patch
                   { slot = vp; at = 0; src = Bytes.make 1 (Char.chr new_flags) })
      | Some _ | None -> () (* never written here, or already undone *))

(* Undo one logged operation, if its effect is still present (guards make
   this idempotent across crashes during rollback). *)
let undo_op eng txn ~op =
  match op with
  | LR.Op_kv_insert { body; table_id; _ } -> (
      match tree_for eng table_id with
      | None -> ()
      | Some tree ->
          let key = key_of_leaf_cell body in
          ignore (Imdb_btree.Btree.delete tree ~key))
  | LR.Op_kv_replace { old_body; table_id; _ } -> (
      match tree_for eng table_id with
      | None -> ()
      | Some tree ->
          let key, value = Imdb_btree.Btree.decode_leaf_cell old_body in
          Imdb_btree.Btree.insert ~undoable:false tree ~key ~value)
  | LR.Op_kv_delete { body; table_id; _ } -> (
      match tree_for eng table_id with
      | None -> ()
      | Some tree ->
          let key, value = Imdb_btree.Btree.decode_leaf_cell body in
          if not (Imdb_btree.Btree.mem tree ~key) then
            Imdb_btree.Btree.insert ~undoable:false tree ~key ~value)
  | LR.Op_version_insert { body; table_id; _ } -> (
      match E.table_by_id eng table_id with
      | None -> ()
      | Some ti -> undo_version eng txn ti ~key:(R.decode body).R.key)
  | LR.Op_msg_append { body; table_id; _ } -> (
      match E.table_by_id eng table_id with
      | None -> ()
      | Some ti ->
          let msg = Ingest.decode_msg body in
          (* Guard 1: the message is still buffered — drop it from the
             mirror and the buffer page, so no later flush can apply a
             loser's write.  Guard 2: a flush already applied it — remove
             our (necessarily unstamped) version from the data page, as
             [undo_version] does for Op_version_insert.  After a
             crash mid-flush both states can coexist (applied but not yet
             truncated); both guards fire and [decr_ref_rollback]
             saturates, so re-undoing stays idempotent. *)
          (match E.ingest_buf eng ti with
          | Some buf when Ingest.remove_seq buf ~seq:msg.Ingest.m_seq ->
              BP.with_page eng.E.pool buf.Ingest.b_page (fun fr ->
                  let page = BP.bytes fr in
                  let victim = ref None in
                  P.iter_live page (fun slot ->
                      if !victim = None then
                        let m = Ingest.decode_msg (P.read_cell page slot) in
                        if m.Ingest.m_seq = msg.Ingest.m_seq then victim := Some slot);
                  match !victim with
                  | Some slot ->
                      E.exec_op eng fr ~undoable:false (LR.Op_delete { slot });
                      Imdb_tstamp.Vtt.decr_ref_rollback (E.vtt eng) txn.E.tx_tid
                  | None -> ())
          | Some _ | None -> ());
          undo_version eng txn ti ~key:msg.Ingest.m_key)
  | LR.Op_insert _ | LR.Op_delete _ | LR.Op_replace _ | LR.Op_patch _
  | LR.Op_header _ | LR.Op_format _ | LR.Op_image _ | LR.Op_version_batch _ ->
      failwith "Txnmgr.undo_op: physical op in an undoable record"

(* Walk the transaction's log chain newest-first, undoing every update. *)
let rollback_chain eng txn ~from_lsn =
  let rec go lsn =
    if Int64.compare lsn LR.nil_lsn > 0 then
      match Imdb_wal.Wal.read_at eng.E.wal lsn with
      | LR.Update { prev_lsn; op; _ } ->
          undo_op eng txn ~op;
          if eng.E.in_recovery then
            Imdb_obs.Metrics.incr eng.E.metrics Imdb_obs.Metrics.recovery_undo;
          go prev_lsn
      | LR.Begin _ -> ()
      | LR.Redo_only _ | LR.Commit _ | LR.End _ | LR.Checkpoint _ ->
          () (* chain heads only link Begin/Update records *)
  in
  go from_lsn

let abort eng txn =
  (match txn.E.tx_state with
  | E.Finished -> raise E.Txn_finished
  | E.Running | E.Rolling_back -> ());
  Imdb_obs.Tracer.with_span eng.E.tracer "txn.abort"
    ~attrs:[ ("tid", Tid.to_string txn.E.tx_tid) ]
  @@ fun _ ->
  txn.E.tx_state <- E.Rolling_back;
  if txn.E.tx_begun then begin
    rollback_chain eng txn ~from_lsn:txn.E.tx_last_lsn;
    ignore (Imdb_wal.Wal.append eng.E.wal (LR.End { tid = txn.E.tx_tid }))
  end;
  Imdb_tstamp.Vtt.abort (E.vtt eng) txn.E.tx_tid;
  Imdb_tstamp.Vtt.drop (E.vtt eng) txn.E.tx_tid;
  Imdb_obs.Metrics.incr eng.E.metrics Imdb_obs.Metrics.txn_aborts;
  release eng txn;
  E.fold_txn_stats eng txn ~committed:false ()

(* Recovery entry point: roll back a loser transaction found in the log.
   Synthesizes a transaction handle around the recovered chain head. *)
let rollback_loser eng ~tid ~last_lsn =
  let txn =
    {
      E.tx_tid = tid;
      tx_isolation = E.Serializable;
      tx_snapshot = Ts.zero;
      tx_session = 0;
      tx_state = E.Rolling_back;
      tx_begun = true;
      tx_last_lsn = last_lsn;
      tx_writes = [];
      tx_write_set = Hashtbl.create 1;
      tx_commit_ts = None;
      tx_durable = false;
      tx_rows_read = 0;
      tx_rows_written = 0;
      tx_lock_waits = 0;
      tx_lock_wait_us = 0;
    }
  in
  rollback_chain eng txn ~from_lsn:last_lsn;
  ignore (Imdb_wal.Wal.append eng.E.wal (LR.End { tid }))
