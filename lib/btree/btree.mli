(** B+tree over buffer-pool pages.

    The ordered workhorse of the engine: the persistent timestamp table
    (keyed by TID — "a B-tree based table ordered by TID", paper Section
    2.2), the table catalog, conventional tables, the key routers above
    versioned data pages, and the split-store baseline's two stores.

    Keys are byte strings compared lexicographically; values opaque
    bytes.  Leaves are doubly linked for range scans; the root page id is
    stable for the life of the tree.  Transactional mutations are logged
    with {e logical} undo (rollback re-locates the key, because splits
    may have moved the cell); structure modifications are redo-only
    nested top actions. *)

type t

(** The engine services a tree needs, kept abstract so the tree carries
    no transaction state of its own. *)
type io = {
  exec : Imdb_buffer.Buffer_pool.frame -> undoable:bool -> Imdb_wal.Log_record.page_op -> unit;
      (** log the op (undoable in the current transaction, or redo-only),
          apply it to the frame and mark it dirty *)
  alloc : ptype:Imdb_storage.Page.page_type -> level:int -> int;
      (** allocate, format and redo-log a fresh page *)
  free : int -> unit;  (** return an empty page to the allocator *)
  atomic : 'a. (unit -> 'a) -> 'a;
      (** run a structure modification (split, leaf reclaim) so that a
          crash keeps all of its log records or none *)
}

val create :
  ?metrics:Imdb_obs.Metrics.t ->
  ?tracer:Imdb_obs.Tracer.t ->
  pool:Imdb_buffer.Buffer_pool.t ->
  io:io ->
  table_id:int ->
  name:string ->
  unit ->
  t
(** A new (empty) tree; the root starts as a leaf. *)

val attach :
  ?metrics:Imdb_obs.Metrics.t ->
  ?tracer:Imdb_obs.Tracer.t ->
  pool:Imdb_buffer.Buffer_pool.t ->
  io:io ->
  root:int ->
  table_id:int ->
  name:string ->
  unit ->
  t
(** Re-attach to an existing tree by root page id. *)

val root : t -> int

(** {1 Point operations} *)

val insert : ?undoable:bool -> t -> key:string -> value:bytes -> unit
(** Insert or replace.  [undoable] (default true) logs the change in the
    current transaction with logical undo; structural callers (key-split
    separators) pass false.
    @raise Invalid_argument if the entry exceeds page capacity. *)

val insert_batch : t -> (string * bytes) list -> unit
(** Insert or replace many entries, redo-only (entries are sorted
    internally; duplicate keys collapse).  A batch beyond the tree's
    largest key is appended at the right edge: the rightmost leaf and
    then fresh leaves are filled, each leaf's share logged as one image
    or as one insert per entry, whichever is smaller.  Entries below
    that key go in one by one, as {!insert} [~undoable:false] does.
    @raise Invalid_argument if an entry exceeds page capacity. *)

val find : t -> key:string -> bytes option
val mem : t -> key:string -> bool

val delete : ?undoable:bool -> t -> key:string -> bool
(** Delete a key; emptied leaves are unlinked and reclaimed.  Default
    redo-only (GC, DROP TABLE); pass [~undoable:true] for transactional
    deletes.  Returns whether the key existed. *)

val delete_batch : ?undoable:bool -> t -> keys:string list -> int
(** Delete many keys with one descent per leaf run (keys are sorted
    internally; duplicates collapse).  Same logging and leaf reclamation
    as {!delete}.  Returns how many of the keys existed. *)

(** {1 Ordered search} *)

val find_floor : t -> key:string -> (string * bytes) option
(** Greatest (key', value) with key' <= key — the router descent. *)

val find_next : t -> key:string -> (string * bytes) option
(** Smallest (key', value) with key' > key. *)

val min_binding : t -> (string * bytes) option

(** {1 Iteration} *)

val iter : ?from:string -> ?upto:string -> t -> (string -> bytes -> unit) -> unit
(** In-order iteration over the inclusive key range. *)

val fold : ?from:string -> ?upto:string -> t -> init:'a -> f:('a -> string -> bytes -> 'a) -> 'a
val count : t -> int

(** {1 Introspection (tests, tools)} *)

exception Invariant_violation of string

val check_invariants : t -> int
(** Walk the whole tree checking separator bounds, leaf-chain consistency
    and level monotonicity; returns the number of keys.
    @raise Invariant_violation *)

(**/**)

(** Internal surfaces used by the engine's rollback and by tests. *)

val decode_leaf_cell : bytes -> string * bytes
val node_floor_slot : t -> Imdb_buffer.Buffer_pool.frame -> string -> int
(* The routing search: in the internal node held by the frame, the live
   slot with the greatest separator <= the key, found through the frame's
   key directory (built on a miss). *)
