(** Crash recovery: ARIES-style, as one forward pass over the log, then undo.

    The pass starts from the checkpoint record the force-written meta
    page names: its active-transaction and dirty-page tables, TID counter
    and clock floor.  It reads every frame from the redo start to the end
    of log once, updating those tables from the checkpoint on, seeding
    the commit-timestamp cache from the Commit records of transactions
    that wrote versions, and replaying page operations gated by page
    LSN.  Undo then rolls losers back with the guarded logical undo of
    {!Txnmgr}.  Lazy timestamping is invisible to redo: stamping was never
    logged, and committed versions may come back from disk still carrying
    TIDs, resolved through the PTT on first access. *)

exception Nothing_durable
(** No meta page and no whole log frame: a crash tore a new database's first append. *)

val recover : Engine.t -> unit
(** Run the full open-time protocol, ending with a fresh checkpoint. *)
