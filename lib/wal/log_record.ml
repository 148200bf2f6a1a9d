(* Log records.

   The engine uses ARIES-style physiological logging: each data change is
   a small operation against one page, replayable against the page image
   ([redo_op]).  Page operations are deterministic functions of the page
   image (see Page), so replaying the logged operation history over the
   on-disk image reproduces the exact page bytes.

   Two envelopes carry page operations:
   - [Update] is undoable and belongs to a transaction (prev_lsn chains
     the transaction's log records for rollback);
   - [Redo_only] covers structure modifications — page formats, time
     splits, key splits, allocator updates — which, as in ARIES-IM nested
     top actions, are never undone once logged, and the effects of
     rollback itself.

   There are no compensation records: rollback is guarded logical undo
   (Txnmgr), so physical ops carry after-images only and an abort logs
   its undo effects redo-only, then [End].  Nor is there a Begin record:
   a transaction's first [Update] (prev_lsn = [nil_lsn]) opens it, and
   its [Commit] — or, after a rollback, its [End] — closes it.

   Notably absent, by design: timestamping of record versions.  The paper's
   lazy timestamping is deliberately *not* logged; its durability is
   guaranteed by the PTT + checkpoint-coupled garbage collection instead
   (Section 2.2). *)

open Imdb_util

type page_op =
  (* Physical ops: structure modifications, GC and rollback effects.
     Logged redo-only; never undone themselves, so they carry after-images
     only. *)
  | Op_insert of { slot : int; body : bytes }
  | Op_delete of { slot : int }
  | Op_replace of { slot : int; body : bytes }
  | Op_patch of { slot : int; at : int; src : bytes }
  | Op_header of { at : int; src : bytes } (* raw header bytes *)
  | Op_format of { page_type : Imdb_storage.Page.page_type; table_id : int; level : int }
  | Op_image of { image : bytes } (* full after-image *)
  (* Transactional ops with *logical* undo.  Redo is physical (replay the
     exact slot operation); undo re-locates the key through the table's
     router at rollback time, because time splits and key splits may have
     moved the affected cells to other slots or pages since the update was
     logged (the ARIES-IM approach).  The engine's rollback code owns the
     undo semantics. *)
  | Op_kv_insert of { slot : int; body : bytes; table_id : int }
      (* B-tree keyed cell insert (PTT, catalog, conventional tables);
         undo: delete the cell's key from table [table_id]'s tree *)
  | Op_kv_replace of { slot : int; old_body : bytes; new_body : bytes; table_id : int }
      (* undo: re-insert the old (key, value) *)
  | Op_kv_delete of { slot : int; body : bytes; table_id : int }
      (* undo: re-insert the deleted (key, value) *)
  | Op_version_insert of {
      slot : int; (* slot the new version went to *)
      body : bytes; (* the new version's record cell *)
      pred_slot : int; (* predecessor's slot, or Record.no_vp *)
      pred_old_flags : int; (* predecessor's flags before marking non-current *)
      table_id : int;
    }
      (* Immortal/snapshot table version-chain insert: one record covers
         both the new version and the flag patch on its predecessor.
         undo: remove the newest version of the record's key and restore
         the predecessor to currency, wherever splits have taken them. *)
  | Op_msg_append of { slot : int; body : bytes; table_id : int }
      (* Ingest-buffer message append (buffered write path): the cell is
         an encoded write message in table [table_id]'s buffer page.
         undo: delete the cell at [slot] if it is live and equal to
         [body] (the message is still buffered), and remove the version
         it produced from the data page if a flush already applied it. *)
  | Op_version_batch of {
      inserts : (int * bytes * int * int) list;
          (* (slot, body, pred_slot, pred_old_flags) per version, in
             application order *)
      table_id : int;
    }
      (* A buffer flush's whole run of version-chain inserts against one
         data page, logged as a single physiological record.  Redo-only:
         transactional undo hangs off each version's [Op_msg_append]
         (whose second guard removes flushed versions), so the batch
         itself is a structure migration, like a time split. *)

type body =
  | Update of { tid : Imdb_clock.Tid.t; prev_lsn : int64; page_id : int; op : page_op }
  | Redo_only of { page_id : int; op : page_op }
  | Commit of {
      tid : Imdb_clock.Tid.t;
      ts : Imdb_clock.Timestamp.t;
      wrote_versions : bool; (* some version still carries the TID *)
    }
  | End of { tid : Imdb_clock.Tid.t }
  | Checkpoint of {
      att : (Imdb_clock.Tid.t * int64) list; (* active txns, last LSN *)
      dpt : (int * int64) list; (* dirty pages, recLSN *)
      next_tid : Imdb_clock.Tid.t;
      clock : Imdb_clock.Timestamp.t; (* floor for commit timestamps *)
      redo_start : int64; (* the posting horizon: recovery reads from here *)
    }

let nil_lsn = 0L

(* --- redo ---------------------------------------------------------------- *)

(* Apply [op] to [page].  The caller has already decided applicability
   (page_lsn < record lsn). *)
let redo_op page op =
  let module P = Imdb_storage.Page in
  let module R = Imdb_storage.Record in
  match op with
  | Op_insert { slot; body } -> P.insert_at_slot page slot body
  | Op_delete { slot } -> P.delete_slot page slot
  | Op_replace { slot; body } -> P.replace_at_slot page slot body
  | Op_patch { slot; at; src } -> P.patch_cell page slot ~at ~src
  | Op_header { at; src } -> Codec.set_bytes page at src
  | Op_format { page_type; table_id; level } ->
      let id = P.page_id page in
      P.format page ~page_id:id ~page_type ~table_id ~level ()
  | Op_image { image } ->
      (* The image may be trimmed (compressed history pages log only
         header + blob; everything past it is zero by construction) —
         clear the tail so replay onto a recycled frame is exact. *)
      let n = Bytes.length image in
      Bytes.blit image 0 page 0 n;
      if n < Bytes.length page then Bytes.fill page n (Bytes.length page - n) '\000'
  | Op_kv_insert { slot; body; _ } -> P.insert_at_slot page slot body
  | Op_kv_replace { slot; new_body; _ } -> P.replace_at_slot page slot new_body
  | Op_kv_delete { slot; _ } -> P.delete_slot page slot
  | Op_version_insert { slot; body; pred_slot; pred_old_flags; _ } ->
      P.insert_at_slot page slot body;
      if pred_slot <> R.no_vp then
        R.set_in_page_flags page pred_slot (pred_old_flags lor R.f_non_current)
  | Op_msg_append { slot; body; _ } -> P.insert_at_slot page slot body
  | Op_version_batch { inserts; _ } ->
      List.iter
        (fun (slot, body, pred_slot, pred_old_flags) ->
          P.insert_at_slot page slot body;
          if pred_slot <> R.no_vp then
            R.set_in_page_flags page pred_slot (pred_old_flags lor R.f_non_current))
        inserts

let header_u32 ~at v =
  let src = Bytes.create 4 in
  Codec.set_u32 src 0 v;
  Op_header { at; src }

(* --- serialization ------------------------------------------------------ *)

let op_tag = function
  | Op_insert _ -> 0
  | Op_delete _ -> 1
  | Op_replace _ -> 2
  | Op_patch _ -> 3
  | Op_header _ -> 4
  | Op_format _ -> 5
  | Op_image _ -> 6
  | Op_kv_insert _ -> 7
  | Op_kv_replace _ -> 8
  | Op_kv_delete _ -> 9
  | Op_version_insert _ -> 10
  | Op_msg_append _ -> 11
  | Op_version_batch _ -> 12

let write_op w op =
  let module W = Codec.Writer in
  W.u8 w (op_tag op);
  match op with
  | Op_insert { slot; body } | Op_replace { slot; body } ->
      W.u16 w slot;
      W.lbytes w body
  | Op_delete { slot } -> W.u16 w slot
  | Op_patch { slot; at; src } ->
      W.u16 w slot;
      W.u16 w at;
      W.lbytes w src
  | Op_header { at; src } ->
      W.u16 w at;
      W.lbytes w src
  | Op_format { page_type; table_id; level } ->
      W.u8 w (Imdb_storage.Page.int_of_page_type page_type);
      W.u32 w table_id;
      W.u16 w level
  | Op_image { image } -> W.lbytes32 w image
  | Op_kv_insert { slot; body; table_id } | Op_kv_delete { slot; body; table_id } ->
      W.u16 w slot;
      W.lbytes w body;
      W.u32 w table_id
  | Op_kv_replace { slot; old_body; new_body; table_id } ->
      W.u16 w slot;
      W.lbytes w old_body;
      W.lbytes w new_body;
      W.u32 w table_id
  | Op_version_insert { slot; body; pred_slot; pred_old_flags; table_id } ->
      W.u16 w slot;
      W.lbytes w body;
      W.u16 w pred_slot;
      W.u8 w pred_old_flags;
      W.u32 w table_id
  | Op_msg_append { slot; body; table_id } ->
      W.u16 w slot;
      W.lbytes w body;
      W.u32 w table_id
  | Op_version_batch { inserts; table_id } ->
      W.u16 w (List.length inserts);
      List.iter
        (fun (slot, body, pred_slot, pred_old_flags) ->
          W.u16 w slot;
          W.lbytes w body;
          W.u16 w pred_slot;
          W.u8 w pred_old_flags)
        inserts;
      W.u32 w table_id

let read_op r =
  let module R = Codec.Reader in
  match R.u8 r with
  | 0 ->
      let slot = R.u16 r in
      Op_insert { slot; body = R.lbytes r }
  | 1 -> Op_delete { slot = R.u16 r }
  | 2 ->
      let slot = R.u16 r in
      Op_replace { slot; body = R.lbytes r }
  | 3 ->
      let slot = R.u16 r in
      let at = R.u16 r in
      Op_patch { slot; at; src = R.lbytes r }
  | 4 ->
      let at = R.u16 r in
      Op_header { at; src = R.lbytes r }
  | 5 ->
      let page_type = Imdb_storage.Page.page_type_of_int (R.u8 r) in
      let table_id = R.u32 r in
      Op_format { page_type; table_id; level = R.u16 r }
  | 6 -> Op_image { image = R.lbytes32 r }
  | 7 ->
      let slot = R.u16 r in
      let body = R.lbytes r in
      Op_kv_insert { slot; body; table_id = R.u32 r }
  | 8 ->
      let slot = R.u16 r in
      let old_body = R.lbytes r in
      let new_body = R.lbytes r in
      Op_kv_replace { slot; old_body; new_body; table_id = R.u32 r }
  | 9 ->
      let slot = R.u16 r in
      let body = R.lbytes r in
      Op_kv_delete { slot; body; table_id = R.u32 r }
  | 10 ->
      let slot = R.u16 r in
      let body = R.lbytes r in
      let pred_slot = R.u16 r in
      let pred_old_flags = R.u8 r in
      Op_version_insert { slot; body; pred_slot; pred_old_flags; table_id = R.u32 r }
  | 11 ->
      let slot = R.u16 r in
      let body = R.lbytes r in
      Op_msg_append { slot; body; table_id = R.u32 r }
  | 12 ->
      let n = R.u16 r in
      let inserts =
        List.init n (fun _ ->
            let slot = R.u16 r in
            let body = R.lbytes r in
            let pred_slot = R.u16 r in
            let pred_old_flags = R.u8 r in
            (slot, body, pred_slot, pred_old_flags))
      in
      Op_version_batch { inserts; table_id = R.u32 r }
  | n -> failwith (Printf.sprintf "Log_record: bad op tag %d" n)

(* tag 0 was Begin, which log format 6 dropped *)
let body_tag = function
  | Update _ -> 1
  | Redo_only _ -> 3
  | Commit _ -> 4
  | End _ -> 6
  | Checkpoint _ -> 7

let encode_into w body =
  let module W = Codec.Writer in
  W.u8 w (body_tag body);
  match body with
  | Update { tid; prev_lsn; page_id; op } ->
      W.i64 w (Imdb_clock.Tid.to_int64 tid);
      W.i64 w prev_lsn;
      W.u32 w page_id;
      write_op w op
  | Redo_only { page_id; op } ->
      W.u32 w page_id;
      write_op w op
  | Commit { tid; ts; wrote_versions } ->
      W.i64 w (Imdb_clock.Tid.to_int64 tid);
      W.i64 w (Imdb_clock.Timestamp.ttime ts);
      W.u32 w (Imdb_clock.Timestamp.sn ts);
      W.u8 w (Bool.to_int wrote_versions)
  | End { tid } -> W.i64 w (Imdb_clock.Tid.to_int64 tid)
  | Checkpoint { att; dpt; next_tid; clock; redo_start } ->
      W.u32 w (List.length att);
      List.iter
        (fun (tid, lsn) ->
          W.i64 w (Imdb_clock.Tid.to_int64 tid);
          W.i64 w lsn)
        att;
      W.u32 w (List.length dpt);
      List.iter
        (fun (pid, lsn) ->
          W.u32 w pid;
          W.i64 w lsn)
        dpt;
      W.i64 w (Imdb_clock.Tid.to_int64 next_tid);
      W.i64 w (Imdb_clock.Timestamp.ttime clock);
      W.u32 w (Imdb_clock.Timestamp.sn clock);
      W.i64 w redo_start

let encode body =
  let w = Codec.Writer.create () in
  encode_into w body;
  Codec.Writer.contents w

let decode b =
  let module R = Codec.Reader in
  let r = R.create b in
  let tid () = Imdb_clock.Tid.of_int64 (R.i64 r) in
  match R.u8 r with
  | 1 ->
      let tid = tid () in
      let prev_lsn = R.i64 r in
      let page_id = R.u32 r in
      Update { tid; prev_lsn; page_id; op = read_op r }
  | 3 ->
      let page_id = R.u32 r in
      Redo_only { page_id; op = read_op r }
  | 4 ->
      let tid = tid () in
      let ttime = R.i64 r in
      let sn = R.u32 r in
      let wrote_versions = R.u8 r <> 0 in
      Commit { tid; ts = Imdb_clock.Timestamp.make ~ttime ~sn; wrote_versions }
  | 6 -> End { tid = tid () }
  | 7 ->
      let natt = R.u32 r in
      let att = List.init natt (fun _ ->
          let t = tid () in
          let lsn = R.i64 r in
          (t, lsn))
      in
      let ndpt = R.u32 r in
      let dpt = List.init ndpt (fun _ ->
          let pid = R.u32 r in
          let lsn = R.i64 r in
          (pid, lsn))
      in
      let next_tid = tid () in
      let ttime = R.i64 r in
      let sn = R.u32 r in
      let clock = Imdb_clock.Timestamp.make ~ttime ~sn in
      Checkpoint { att; dpt; next_tid; clock; redo_start = R.i64 r }
  | n -> failwith (Printf.sprintf "Log_record: bad body tag %d" n)

let pp_op ppf = function
  | Op_insert { slot; body } -> Fmt.pf ppf "insert slot=%d %dB" slot (Bytes.length body)
  | Op_delete { slot } -> Fmt.pf ppf "delete slot=%d" slot
  | Op_replace { slot; body } -> Fmt.pf ppf "replace slot=%d ->%dB" slot (Bytes.length body)
  | Op_patch { slot; at; src } ->
      Fmt.pf ppf "patch slot=%d at=%d %dB" slot at (Bytes.length src)
  | Op_header { at; src } -> Fmt.pf ppf "header at=%d %dB" at (Bytes.length src)
  | Op_format { page_type; _ } ->
      Fmt.pf ppf "format %a" Imdb_storage.Page.pp_page_type page_type
  | Op_image { image } -> Fmt.pf ppf "image %dB" (Bytes.length image)
  | Op_kv_insert { slot; body; _ } -> Fmt.pf ppf "kv-insert slot=%d %dB" slot (Bytes.length body)
  | Op_kv_replace { slot; new_body; _ } ->
      Fmt.pf ppf "kv-replace slot=%d ->%dB" slot (Bytes.length new_body)
  | Op_kv_delete { slot; body; _ } -> Fmt.pf ppf "kv-delete slot=%d %dB" slot (Bytes.length body)
  | Op_version_insert { slot; pred_slot; body; _ } ->
      Fmt.pf ppf "version-insert slot=%d pred=%d %dB" slot pred_slot (Bytes.length body)
  | Op_msg_append { slot; body; _ } ->
      Fmt.pf ppf "msg-append slot=%d %dB" slot (Bytes.length body)
  | Op_version_batch { inserts; _ } ->
      Fmt.pf ppf "version-batch n=%d %dB" (List.length inserts)
        (List.fold_left (fun a (_, b, _, _) -> a + Bytes.length b) 0 inserts)

let pp ppf = function
  | Update { tid; page_id; op; prev_lsn } ->
      Fmt.pf ppf "UPDATE %a page=%d prev=%Ld %a" Imdb_clock.Tid.pp tid page_id prev_lsn
        pp_op op
  | Redo_only { page_id; op } -> Fmt.pf ppf "REDO_ONLY page=%d %a" page_id pp_op op
  | Commit { tid; ts; wrote_versions } ->
      Fmt.pf ppf "COMMIT %a ts=%a%s" Imdb_clock.Tid.pp tid Imdb_clock.Timestamp.pp ts
        (if wrote_versions then " versions" else "")
  | End { tid } -> Fmt.pf ppf "END %a" Imdb_clock.Tid.pp tid
  | Checkpoint { att; dpt; redo_start; _ } ->
      Fmt.pf ppf "CHECKPOINT att=%d dpt=%d redo_start=%Ld" (List.length att) (List.length dpt)
        redo_start
