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
