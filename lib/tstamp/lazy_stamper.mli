(** Lazy timestamping: the four-stage protocol of paper Section 2.2,
    tying VTT and PTT together.

    The stamping triggers pass one of the resolvers below, and
    {!on_stamp}, to {!Imdb_version.Vpage.stamp}, the one routine that
    writes a timestamp into a version.  Resolution during normal access
    may fault PTT entries into the VTT; the buffer pool's pre-flush hook
    uses the volatile-only variant (a PTT lookup there could recurse
    into eviction, and skipping a miss is always safe: the PTT entry
    cannot be collected while the version's refcount is positive).  No stamping is ever logged — durability is
    the garbage-collection rule's job. *)

type t

val create : ?metrics:Imdb_obs.Metrics.t -> unit -> t

val set_tracer : t -> Imdb_obs.Tracer.t -> unit
(** Spans: {!garbage_collect} records a "ptt.gc" span
    (candidates/posted attrs) that nests under the checkpoint that
    triggered it. *)

val set_ptt : t -> Ptt.t -> unit
val set_end_of_log : t -> (unit -> int64) -> unit

val set_flushed_lsn : t -> (unit -> int64) -> unit
(** Durable log horizon.  Flush-time stamping only stamps commits whose
    commit record is at or below it: stamps are unlogged and do not move
    the page LSN, so stamping a not-yet-durable commit would let a crash
    lose the commit record while the stamped page survives — a phantom
    committed version that guarded undo cannot remove. *)

val set_force_log : t -> (int64 -> unit) -> unit
(** Make the log durable up to the given end of a commit record (its
    VTT [commit_end]).  Normal-access stamping calls this before
    stamping a commit above the durable horizon (see
    {!resolve_for_stamping}); the engine wires it to [Wal.flush] through
    that record, not the whole tail. *)

val vtt : t -> Vtt.t

val unknown_tids : t -> int
(** Resolutions that found a TID in neither the VTT nor the PTT — an
    integrity error: a mapping some version still needed was lost.
    Stays 0. *)

val resolve_volatile_only : t -> Imdb_clock.Tid.t -> Imdb_version.Vpage.resolution
(** VTT only, durably-committed only — for the pre-flush hook. *)

val resolve_for_stamping : t -> Imdb_clock.Tid.t -> Imdb_version.Vpage.resolution
(** VTT, then PTT (caching the hit in the VTT with undefined refcount);
    forces the log before answering [Committed] for a commit whose
    commit record is not yet durable — the access-path stamping gate.
    Stamping an unforced commit would let a crash keep the stamped page
    while losing the commit record, leaving a phantom committed version
    that recovery's guarded undo cannot remove. *)

val on_stamp : t -> Imdb_clock.Tid.t -> unit
(** Reference-count bookkeeping for each version stamped. *)

val post : t -> redo_scan_start:int64 -> int
(** Checkpoint posting, before the checkpoint record: insert every
    committed mapping the PTT lacks whose Commit record lies below
    [redo_scan_start], except those {!garbage_collect} at the same
    [redo_scan_start] will collect, in one redo-only batch
    ({!Ptt.insert_batch}); then forget the posted mappings of undefined
    refcount.  Mappings committed later wait for a later checkpoint:
    recovery re-reads their Commit records.  Run inside one atomic log
    group.  Returns the number posted. *)

val garbage_collect : t -> redo_scan_start:int64 -> Imdb_clock.Tid.t list
(** Incremental GC, run once the checkpoint that posted is durable:
    forget every mapping whose stamping is provably durable, deleting
    the posted ones from the PTT in one batched pass
    ({!Ptt.delete_batch}); records the drain size in [ptt.gc_batch].
    Returns the collected TIDs. *)

val forget_stamped : t -> int
(** Vacuum, once every version on disk is stamped: drop every committed
    mapping with a drained or undefined refcount, and every PTT entry of
    a TID no version still carries.  Returns the PTT entries deleted. *)
