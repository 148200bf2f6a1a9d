(** Crash recovery: ARIES-style analysis, redo, undo.

    Analysis reconstructs the active-transaction and dirty-page tables
    from the last checkpoint (found through the force-written meta page)
    and rebuilds the volatile commit-timestamp cache from Commit records;
    redo replays page operations gated by page LSN; undo rolls losers
    back with the guarded logical undo of {!Txnmgr}.  Lazy timestamping
    is invisible to redo — stamping was never logged, and committed
    versions may legitimately come back from disk still carrying TIDs, to
    be resolved through the PTT on first access. *)

val recover : Engine.t -> unit
(** Run the full open-time protocol, ending with a fresh checkpoint. *)

(**/**)

type analysis = {
  mutable att : (Imdb_clock.Tid.t * int64) list;
  mutable dpt : (int * int64) list;
  mutable max_tid : Imdb_clock.Tid.t;
  mutable max_ts : Imdb_clock.Timestamp.t;
  mutable commits : (Imdb_clock.Tid.t * Imdb_clock.Timestamp.t) list;
}

val analyze : Engine.t -> checkpoint_lsn:int64 -> analysis

val redo : Engine.t -> analysis -> checkpoint_lsn:int64 -> int64 * int64
(** Returns (redo_start, last applied LSN); tracks progress in the
    [recovery.redo_lsn] gauge. *)

val read_meta_from_disk : Engine.t -> Meta.t option
