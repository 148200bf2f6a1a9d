(** Log records: ARIES-style physiological logging.

    Each data change is a small operation against one page, replayable
    against the page image ([redo_op]).  Transactional operations use
    {e logical} undo — rollback re-locates the affected key through the
    live structures, because time splits and key splits may have moved it
    since logging.  Physical ops are never undone, so they carry
    after-images only, and there are no compensation or abort records:
    an abort logs its undo effects redo-only, then [End].  There is no
    Begin record either: a transaction's first [Update] carries
    [prev_lsn = nil_lsn], and a committed transaction's last record is
    its [Commit].

    Deliberately absent: timestamp propagation.  The paper's lazy
    timestamping is never logged; its durability rests on the PTT and the
    checkpoint-coupled garbage-collection rule. *)

type page_op =
  (* Physical ops: structure modifications, GC, rollback effects. *)
  | Op_insert of { slot : int; body : bytes }
  | Op_delete of { slot : int }
  | Op_replace of { slot : int; body : bytes }
  | Op_patch of { slot : int; at : int; src : bytes }
  | Op_header of { at : int; src : bytes }
  | Op_format of { page_type : Imdb_storage.Page.page_type; table_id : int; level : int }
  | Op_image of { image : bytes }
  (* Transactional ops with logical undo. *)
  | Op_kv_insert of { slot : int; body : bytes; table_id : int }
  | Op_kv_replace of { slot : int; old_body : bytes; new_body : bytes; table_id : int }
  | Op_kv_delete of { slot : int; body : bytes; table_id : int }
  | Op_version_insert of {
      slot : int;
      body : bytes;
      pred_slot : int;
      pred_old_flags : int;
      table_id : int;
    }
      (** A version-chain insert: covers both the new version and the
          currency-flag patch on its predecessor. *)
  | Op_msg_append of { slot : int; body : bytes; table_id : int }
      (** An ingest-buffer message append: the cell is one encoded write
          message in table [table_id]'s buffer page, awaiting a batch
          flush into the data pages. *)
  | Op_version_batch of {
      inserts : (int * bytes * int * int) list;
      table_id : int;
    }
      (** A buffer flush's whole run of version inserts against one data
          page — [(slot, body, pred_slot, pred_old_flags)] in application
          order — as one redo-only record.  Undo hangs off the versions'
          [Op_msg_append] records, never off the batch. *)

type body =
  | Update of { tid : Imdb_clock.Tid.t; prev_lsn : int64; page_id : int; op : page_op }
  | Redo_only of { page_id : int; op : page_op }
  | Commit of { tid : Imdb_clock.Tid.t; ts : Imdb_clock.Timestamp.t; wrote_versions : bool }
      (** [wrote_versions]: some record version carried the TID when the
          transaction committed, so recovery must be able to resolve it. *)
  | End of { tid : Imdb_clock.Tid.t }
      (** A finished rollback: the transaction's undo is complete. *)
  | Checkpoint of {
      att : (Imdb_clock.Tid.t * int64) list;
      dpt : (int * int64) list;
      next_tid : Imdb_clock.Tid.t;
      clock : Imdb_clock.Timestamp.t;
      redo_start : int64;
          (** The checkpoint's posting horizon: every mapping whose Commit
              record lies below it is in the PTT or collectable, so
              recovery's pass starts here.  No later than every recLSN
              in [dpt]. *)
    }

val nil_lsn : int64

val redo_op : bytes -> page_op -> unit
(** Apply an op to a page image; the caller has already checked
    applicability (page LSN < record LSN). *)

val header_u32 : at:int -> int -> page_op
(** An [Op_header] that sets the page-header u32 at offset [at]. *)

val encode_into : Imdb_util.Codec.Writer.t -> body -> unit
(** Append the record's encoding to the writer (the log frames it in
    place). *)

val encode : body -> bytes
val decode : bytes -> body

val pp : Format.formatter -> body -> unit
