(** Ingest messages (write-optimized ingestion).

    A buffered write appends a {e message} to its table's single
    [P_msg_buffer] page instead of descending to a data page; a flush
    later reads the page's live cells in slot order — appends only grow
    the slot array, so slot order is arrival order — and applies them
    through the ordinary version-chain primitives, reproducing exactly
    the pages the unbuffered path would have built.  The page is the
    only record of buffered writes; this module owns the message codec
    only. *)

type kind = M_insert | M_update | M_upsert | M_delete

type msg = {
  m_tid : Imdb_clock.Tid.t;
  m_kind : kind;
  m_key : string;
  m_payload : string;  (** [""] for delete stubs *)
  m_clock : Imdb_clock.Timestamp.t;
      (** clock snapshot at append; base for deferred split times *)
}

val encode_msg : msg -> bytes
val decode_msg : bytes -> msg

val is_for_key : bytes -> key:string -> int -> bool
(** [is_for_key page ~key off]: whether the message whose encoding
    starts at [off] in [page] is for [key], read in place. *)

val kind_at : bytes -> int -> kind
(** The kind of the message whose encoding starts at that offset. *)
