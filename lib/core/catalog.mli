(** The table catalog: name -> descriptor, stored in a system B-tree.

    The paper's [IMMORTAL] DDL keyword becomes the {!Immortal} mode flag;
    the flag "is visible to the storage engine" and decides versioning,
    PTT participation and AS OF support (Section 4.1). *)

type table_mode =
  | Immortal  (** persistent versions, time splits, AS OF *)
  | Snapshot_table  (** versions kept only for snapshot isolation *)
  | Conventional  (** update in place *)

val pp_mode : Format.formatter -> table_mode -> unit

type table_info = {
  ti_id : int;
  ti_name : string;
  ti_mode : table_mode;
  ti_schema : Schema.t;
  mutable ti_root : int;
      (** key-router root (versioned) / B-tree root (conventional) *)
  mutable ti_tsb_root : int;  (** 0 = no TSB index *)
  mutable ti_buf_root : int;  (** ingest message-buffer page; 0 = none *)
}

val store : Imdb_btree.Btree.t -> table_info -> unit
(** Transactional (undoable) catalog write. *)

val store_redo_only : Imdb_btree.Btree.t -> table_info -> unit
(** Redo-only catalog write, for structure modifications (ingest buffer
    page allocation) that must survive a transaction abort. *)

val remove : Imdb_btree.Btree.t -> string -> bool
val load_all : Imdb_btree.Btree.t -> table_info list
