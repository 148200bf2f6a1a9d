(** Transaction lifecycle: commit processing and rollback.

    Commit chooses the timestamp late (so it agrees with serialization
    order) and, under lazy timestamping, performs the single PTT insert
    before the commit record — no updated record is revisited.  Rollback
    uses {e guarded logical undo}: each logged operation's effect is
    re-located through the live structures (splits may have moved it) and
    reverted only if still present, which makes re-undoing after a crash
    idempotent and replaces textbook CLR chains. *)

val begin_txn : ?session:int -> Engine.t -> isolation:Engine.isolation -> Engine.txn
(** [session] tags the transaction with the originating session's id for
    per-session statistics (default 0: anonymous / engine-internal). *)

val commit : Engine.t -> Engine.txn -> Imdb_clock.Timestamp.t option
(** Returns the commit timestamp, or [None] for read-only transactions
    (which leave no trace at all). *)

val abort : Engine.t -> Engine.txn -> unit

val rollback_loser : Engine.t -> tid:Imdb_clock.Tid.t -> last_lsn:int64 -> unit
(** Recovery entry point: roll back a loser found in the log. *)
