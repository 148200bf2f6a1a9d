(** The volatile timestamp table (paper Section 2.2).

    In-memory map TID -> (timestamp, RefCount): both a cache over the
    persistent timestamp table and the bookkeeping that makes its
    incremental garbage collection safe.  RefCount counts a transaction's
    record versions still carrying the TID; when it drains, the
    end-of-log LSN is remembered, and the PTT entry may be deleted once
    the redo-scan start point passes it — proof that every page holding
    the (never logged!) stamping has reached disk. *)

type status = Active | Committed of Imdb_clock.Timestamp.t | Aborted

type entry = {
  tid : Imdb_clock.Tid.t;
  mutable status : status;
  mutable refcount : int;  (** [undefined] for entries faulted from the PTT *)
  mutable lsn_at_zero : int64;  (** end-of-log when refcount drained *)
  mutable commit_end : int64;  (** end-of-log when the commit record was written *)
  mutable persistent : bool;  (** has a PTT entry (wrote an immortal table) *)
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

val commit :
  t -> Imdb_clock.Tid.t -> ts:Imdb_clock.Timestamp.t -> persistent:bool -> end_of_log:int64 -> unit
(** Stage III: the commit timestamp is known. *)

val abort : t -> Imdb_clock.Tid.t -> unit

val note_stamped : t -> Imdb_clock.Tid.t -> end_of_log:int64 -> unit
(** Stage IV: a version was just stamped; the last one records the GC
    threshold LSN. *)

val cache_from_ptt : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> unit
(** Cache a mapping recovered from the PTT with an undefined refcount, so
    GC never fires from it. *)

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

val gc_candidates : t -> redo_scan_start:int64 -> (Imdb_clock.Tid.t * bool) list
(** Transactions whose PTT entry is now garbage: refcount drained and
    stamping provably on disk.  The bool is [persistent]. *)

val drop : t -> Imdb_clock.Tid.t -> unit

val drop_if_drained_snapshot : t -> Imdb_clock.Tid.t -> unit
(** Snapshot-only transactions vanish the moment their refcount drains:
    nothing about them needs to survive. *)

