(** The volatile timestamp table (paper Section 2.2).

    In-memory map TID -> (timestamp, RefCount): both a cache over the
    persistent timestamp table and the bookkeeping that makes its
    incremental garbage collection safe.  RefCount counts a transaction's
    record versions still carrying the TID; when it drains, the
    end-of-log LSN is remembered, and the mapping may be forgotten once
    the redo-scan start point passes it — proof that every page holding
    the (never logged!) stamping has reached disk.  Mappings are posted
    to the PTT at checkpoint, not at commit, and only once the
    redo-scan start passes their Commit records; until then recovery
    reads those records again and they answer for them. *)

type status = Active | Committed of Imdb_clock.Timestamp.t | Aborted

type entry = {
  tid : Imdb_clock.Tid.t;
  mutable status : status;
  mutable refcount : int;  (** [undefined] for entries faulted from the PTT *)
  mutable lsn_at_zero : int64;  (** end-of-log when refcount drained *)
  mutable commit_end : int64;
      (** end-of-log when the commit record was written (one past the
          record's LSN for a mapping seeded at recovery) *)
  mutable posted : bool;  (** the mapping is in the PTT *)
}

type t

val create : ?metrics:Imdb_obs.Metrics.t -> unit -> t
val find : t -> Imdb_clock.Tid.t -> entry option

val begin_txn : t -> Imdb_clock.Tid.t -> unit
(** Stage I: transaction begin. *)

val incr_ref : t -> Imdb_clock.Tid.t -> unit
(** Stage II: one more version carries this TID. *)

val decr_ref_rollback : t -> Imdb_clock.Tid.t -> unit
(** A version removed by rollback no longer needs stamping. *)

val commit : t -> Imdb_clock.Tid.t -> ts:Imdb_clock.Timestamp.t -> end_of_log:int64 -> unit
(** Stage III: the commit timestamp is known.  A transaction that left
    no version carrying its TID (refcount 0) is dropped instead: nothing
    will ever resolve it. *)

val abort : t -> Imdb_clock.Tid.t -> unit

val note_stamped : t -> Imdb_clock.Tid.t -> end_of_log:int64 -> unit
(** Stage IV: a version was just stamped; the last one records the GC
    threshold LSN. *)

val cache_from_ptt : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> unit
(** Cache a mapping recovered from the PTT with an undefined refcount, so
    GC never fires from it. *)

val seed_from_log : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> lsn:int64 -> unit
(** Recovery: the Commit record at [lsn], at or after the redo start, of
    a transaction that wrote versions.  Undefined refcount, not yet
    posted; the first checkpoint whose redo-scan start passes [lsn]
    posts it and then {!drop_unreferenced} forgets it. *)

val resolve :
  t ->
  Imdb_clock.Tid.t ->
  [ `Committed of Imdb_clock.Timestamp.t | `Active | `Aborted ] option

val commit_durable : t -> Imdb_clock.Tid.t -> flushed_lsn:int64 -> bool
(** Is [tid]'s commit record durable given the log is flushed through
    [flushed_lsn]?  Flush-time stamping must not outrun the commit
    record: stamps are unlogged and do not move the page LSN, so
    WAL-before-data alone would let a stamped page reach disk carrying a
    commit timestamp that a crash then loses. *)

val gc_candidates : t -> redo_scan_start:int64 -> entry list
(** Transactions whose mapping is now garbage: refcount drained and
    stamping provably on disk.  [posted] tells which also hold a PTT
    entry. *)

val unposted :
  t -> redo_scan_start:int64 -> (Imdb_clock.Tid.t * Imdb_clock.Timestamp.t) list
(** Committed mappings the PTT does not hold yet whose Commit record
    lies below [redo_scan_start] and that {!gc_candidates} at
    [redo_scan_start] would not return: what the log can no longer
    answer for once recovery starts there. *)

val mark_posted : t -> Imdb_clock.Tid.t -> unit

val drop : t -> Imdb_clock.Tid.t -> unit

val drop_unreferenced : t -> unit
(** Forget every posted mapping of undefined refcount (recovered or
    looked up): the PTT answers for it. *)

val drop_unneeded : t -> Imdb_clock.Tid.t list
(** Forget every committed mapping with a drained or undefined refcount;
    returns the committed TIDs kept (versions still carry them). *)

val tids : t -> Imdb_clock.Tid.t list
(** Every TID the table holds, in no particular order. *)
