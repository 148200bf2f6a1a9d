(** Database metadata: the single cell of page 0.

    Page 0 flows through the buffer pool and WAL like any page, so
    allocator state is crash-consistent.  [last_checkpoint_lsn] is also
    read directly from disk, once per open and before the log is opened:
    recovery's one pass starts from that checkpoint (a stale value only
    starts it earlier; a missing or torn page starts it at LSN 0). *)

val meta_page_id : int
val meta_slot : int

(* Reserved system table ids. *)
val catalog_table_id : int
val ptt_table_id : int

type t = {
  mutable hwm : int;  (** first never-allocated page id *)
  mutable freelist_head : int;  (** 0 = empty *)
  mutable catalog_root : int;
  mutable ptt_root : int;
  mutable next_table_id : int;
  mutable last_checkpoint_lsn : int64;
}

val fresh : unit -> t

exception Bad_meta of string

val encode : t -> bytes
val decode : bytes -> t
(** @raise Bad_meta on wrong magic or version. *)

val read_from_disk : Imdb_storage.Disk.t -> t option
(** The on-disk meta page; [None] if absent or torn.
    @raise Bad_meta if the intact page has the wrong magic or version. *)
