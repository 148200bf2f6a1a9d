(** Ingest message buffers (write-optimized ingestion).

    A buffered write appends a {e message} to its table's single
    [P_msg_buffer] page instead of descending to a data page; a flush
    later drains the buffer in arrival order and applies the messages
    through the ordinary version-chain primitives, reproducing exactly
    the pages the unbuffered path would have built.  This module owns
    the message codec and the volatile per-table mirror (arrival queue +
    newest-message-per-key map); the engine owns durability. *)

type kind = M_insert | M_update | M_upsert | M_delete

type msg = {
  m_seq : int;  (** engine-global arrival order, unique per message *)
  m_tid : Imdb_clock.Tid.t;
  m_kind : kind;
  m_key : string;
  m_payload : string;  (** [""] for delete stubs *)
  m_clock : Imdb_clock.Timestamp.t;
      (** clock snapshot at append; base for deferred split times *)
}

val encode_msg : msg -> bytes
val decode_msg : bytes -> msg

type buf = {
  b_table : int;
  b_page : int;
  mutable b_msgs : msg list;
  b_newest : (string, msg) Hashtbl.t;
  mutable b_count : int;
  mutable b_flushing : bool;
}

val create : table_id:int -> page_id:int -> buf
val count : buf -> int
val is_empty : buf -> bool
val add : buf -> msg -> unit

val newest : buf -> key:string -> msg option
(** Newest buffered message for [key]: a delete means "absent", any other
    kind "present"; [None] defers the existence check to the pages. *)

val drain : buf -> msg list
(** All buffered messages in arrival order; resets the mirror.  The
    caller applies them and truncates the backing page. *)

val remove_seq : buf -> seq:int -> bool
(** Rollback path: drop the message with this sequence number if still
    buffered (recomputing the newest-per-key entry). *)

val of_page : table_id:int -> bytes -> buf
(** Rebuild the mirror from a recovered buffer page image. *)

val max_seq : buf -> int
