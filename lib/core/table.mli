(** Table data operations.

    Versioned tables (immortal and snapshot) are a key-router B-tree over
    versioned data pages; every write inserts a version, deletes insert
    stubs, full pages time-split (immortal) or version-GC (snapshot) with
    a key split when current utilization exceeds T.  Conventional tables
    are plain B-trees.  Reads dispatch on the transaction's isolation:
    locked current state, snapshot, or AS OF via page chain / TSB index. *)

exception Duplicate_key of string
exception No_such_key of string

exception Write_conflict of {
  key : string;
  committed_at : Imdb_clock.Timestamp.t option;
}
(** Snapshot-isolation first-committer-wins violation. *)

exception Not_versioned of string
(** AS OF / history requested on a non-immortal table. *)

exception Page_overflow of string

val is_versioned : Catalog.table_info -> bool

(** {1 Structure handles} *)

val router : Engine.t -> Catalog.table_info -> Imdb_btree.Btree.t
val conv_tree : Engine.t -> Catalog.table_info -> Imdb_btree.Btree.t
val tsb : Engine.t -> Catalog.table_info -> Imdb_tsb.Tsb.t option

val locate : Engine.t -> Catalog.table_info -> key:string -> int * string * string option
(** The data page responsible for [key] with its router bounds
    [low, high). *)

val locate_page : Engine.t -> Catalog.table_info -> key:string -> int
(** Hot-path variant: page id only, one router descent. *)

val router_ranges : Engine.t -> Catalog.table_info -> (string * string option * int) list
(** All router entries in key order: (low, high, page_id). *)

(** {1 DDL} *)

val create :
  Engine.t -> name:string -> mode:Catalog.table_mode -> schema:Schema.t -> Catalog.table_info
(** Create storage structures and the catalog entry, inside the caller's
    (DDL) transaction. *)

val drop : Engine.t -> string -> bool

val enable_snapshot : Engine.t -> Catalog.table_info -> int
(** [ALTER TABLE ... ENABLE SNAPSHOT] (paper §4.1): convert a
    conventional table to a snapshot-versioned one, migrating its rows as
    versions of the current (DDL) transaction.  Returns the number of
    rows migrated.  @raise Invalid_argument if already versioned. *)

(** {1 Writes} *)

val insert : Engine.t -> Engine.txn -> Catalog.table_info -> key:string -> payload:string -> unit
val update : Engine.t -> Engine.txn -> Catalog.table_info -> key:string -> payload:string -> unit
val upsert : Engine.t -> Engine.txn -> Catalog.table_info -> key:string -> payload:string -> unit
val delete : Engine.t -> Engine.txn -> Catalog.table_info -> key:string -> unit

(** {1 Reads} *)

val read : Engine.t -> Engine.txn -> Catalog.table_info -> key:string -> string option
(** Isolation-aware point read. *)

val scan :
  Engine.t ->
  ?lo:string ->
  ?hi:string ->
  Engine.txn ->
  Catalog.table_info ->
  (string -> string -> unit) ->
  unit
(** Isolation-aware scan (current, snapshot, or AS OF), optionally
    bounded to the key window [lo, hi) — the access path of the paper's
    own [WHERE Oid < 10] example. *)

val scan_as_of :
  Engine.t ->
  ?lo:string ->
  ?hi:string ->
  Engine.txn ->
  Catalog.table_info ->
  t:Imdb_clock.Timestamp.t ->
  (string -> string -> unit) ->
  unit
(** Full table state at a past time: for each router range, the page
    covering [t] — the current page when t >= its split time, otherwise
    the chain/TSB target — supplies every key's visible version. *)

val history :
  Engine.t ->
  Engine.txn ->
  Catalog.table_info ->
  key:string ->
  (Imdb_clock.Timestamp.t * string option) list
(** Time travel: every committed state of the record, newest first;
    [None] marks deletion. *)

(** {1 Maintenance} *)

val flush_ingest : Engine.t -> Catalog.table_info -> unit
(** Drain the table's ingest buffer (no-op when empty or absent):
    truncate the buffer page and apply every message it held downward,
    in one atomic log group.  Reads and per-row writes do this
    implicitly, and {!Db.vacuum} calls it so maintenance sees
    fully-applied state.  Checkpoints do not: the engine cannot reach
    this module, and buffered messages stay on their logged page. *)

val eager_stamp_writes : Engine.t -> Engine.txn -> ts:Imdb_clock.Timestamp.t -> unit
(** Eager-mode commit support: revisit, stamp and {e log} every version
    the transaction wrote (the strategy the paper rejects). *)
