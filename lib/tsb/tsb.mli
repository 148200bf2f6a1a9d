(** Time-split B-tree index (Lomet & Salzberg, SIGMOD '89) — the temporal
    index the paper names as its most important next step (Section 7.2).

    Indexes the historical pages produced by data-page time splits: each
    indexed page owns a rectangle [key_low, key_high) x [t_low, t_high) in
    key x time space, and an AS OF access lands on the right page in
    O(tree depth) instead of walking the time-split page chain.

    Index nodes split like TSB-tree index nodes: leaf entries (immutable
    history pages) may be posted redundantly across a time split; internal
    entries (mutable index nodes) never are — internal splits pick a clean
    guillotine line no child spans. *)

type rect = {
  key_low : string;
  key_high : string option;  (** [None] = +infinity *)
  t_low : Imdb_clock.Timestamp.t;
  t_high : Imdb_clock.Timestamp.t;  (** [Timestamp.infinity] = open *)
}

type entry = { rect : rect; child : int }

type io = {
  exec : Imdb_buffer.Buffer_pool.frame -> Imdb_wal.Log_record.page_op -> unit;
      (** redo-only log + apply + mark dirty (all index changes are
          structure modifications) *)
  alloc : level:int -> int;  (** fresh index page *)
}

type t

val create : pool:Imdb_buffer.Buffer_pool.t -> io:io -> table_id:int -> t
val attach : pool:Imdb_buffer.Buffer_pool.t -> io:io -> root:int -> table_id:int -> t
val root : t -> int

val insert : t -> rect:rect -> child:int -> unit
(** Register a historical page covering [rect].  Rectangles of distinct
    pages must be disjoint (time splits guarantee it). *)

val find : t -> key:string -> ts:Imdb_clock.Timestamp.t -> int option
(** The historical page whose rectangle contains (key, ts), if any. *)

exception Invariant_violation of string

val check_invariants : t -> int
(** Containment, one rectangle per indexed page across its redundant
    leaf copies, and disjointness of distinct pages' rectangles; returns
    the leaf entry count, copies included.  @raise Invariant_violation *)
