(* Lazy timestamping: the four-stage protocol of Section 2.2, tying the
   VTT and PTT together.

   Normal-access stamping ([resolve]) may fault PTT entries into the VTT.
   Flush-time stamping ([resolve_volatile_only]) consults the VTT alone:
   the buffer pool calls it while evicting a page, and a PTT lookup there
   could recurse into eviction.  Skipping a VTT miss is always safe — a
   miss means either the transaction is still active (leave the TID), or
   the record will be stamped on a later access (the PTT entry cannot be
   collected while the refcount is positive).

   No stamping is ever logged.  Durability of stamping is the GC rule's
   job: a PTT entry survives until the redo-scan start point proves every
   stamped page reached disk. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid

type t = {
  vtt : Vtt.t;
  mutable ptt : Ptt.t option; (* None until the engine wires storage up *)
  mutable end_of_log : unit -> int64; (* for lsn_at_zero bookkeeping *)
  mutable flushed_lsn : unit -> int64; (* durable log horizon (flush-time gate) *)
  mutable force_log : int64 -> unit;
      (* make the log durable up to a commit record's end (stamping gate) *)
  mutable unknown_tids : int; (* integrity counter: should stay 0 *)
  metrics : Imdb_obs.Metrics.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

let create ?(metrics = Imdb_obs.Metrics.null) () =
  { vtt = Vtt.create ~metrics (); ptt = None; end_of_log = (fun () -> 0L);
    flushed_lsn = (fun () -> 0L); force_log = (fun _ -> ());
    unknown_tids = 0; metrics; tracer = Imdb_obs.Tracer.null }

let set_tracer t tr = t.tracer <- tr

let set_ptt t ptt = t.ptt <- Some ptt
let set_end_of_log t f = t.end_of_log <- f
let set_flushed_lsn t f = t.flushed_lsn <- f
let set_force_log t f = t.force_log <- f
let vtt t = t.vtt
let ptt_exn t =
  match t.ptt with Some p -> p | None -> invalid_arg "Lazy_stamper: PTT not attached"

(* Map a TID found in a record version to its fate.  Faults PTT entries
   into the VTT on miss. *)
let resolve t tid : Imdb_version.Vpage.resolution =
  match Vtt.resolve t.vtt tid with
  | Some (`Committed ts) -> Imdb_version.Vpage.Committed ts
  | Some `Active -> Imdb_version.Vpage.Active
  | Some `Aborted ->
      (* rollback removes the versions; treat as active meanwhile *)
      Imdb_version.Vpage.Active
  | None -> (
      match t.ptt with
      | None ->
          t.unknown_tids <- t.unknown_tids + 1;
          Imdb_version.Vpage.Unknown
      | Some ptt -> (
          match Ptt.lookup ptt tid with
          | Some ts ->
              Vtt.cache_from_ptt t.vtt tid ts;
              Imdb_version.Vpage.Committed ts
          | None ->
              t.unknown_tids <- t.unknown_tids + 1;
              Imdb_version.Vpage.Unknown))

(* Resolution for normal-access stamping ([stamp_page] / the per-record
   trigger).  Identical to [resolve] except that a commit whose commit
   record is still in the volatile log tail first forces the log.  A
   stamp is unlogged and does not advance the page LSN, so
   WAL-before-data alone would not push the commit record out before the
   stamped image could reach disk; a crash then loses the commit, the
   transaction becomes a loser, and recovery's guarded undo (which
   matches the *unstamped* TID) would skip the stamped version — a
   phantom committed version.  Forcing the log first restores the
   invariant that any stamp that can reach disk names a durably
   committed transaction.  The force is rare: it fires only when an
   access stamps a commit younger than the last flush (another session's
   commit between its VTT switch and its sync).  It asks for that
   commit record only ([commit_end]), not the whole tail, so a force
   landing during the committer's own sync waits for that sync instead
   of paying another.  The PTT fallback needs no gate — a PTT
   entry consulted here is covered by a durable commit record (losers'
   entries are removed during recovery, before any access-path
   stamping). *)
let resolve_for_stamping t tid : Imdb_version.Vpage.resolution =
  match Vtt.resolve t.vtt tid with
  | Some (`Committed ts) ->
      if not (Vtt.commit_durable t.vtt tid ~flushed_lsn:(t.flushed_lsn ()))
      then
        Option.iter (fun e -> t.force_log e.Vtt.commit_end) (Vtt.find t.vtt tid);
      Imdb_version.Vpage.Committed ts
  | Some `Active | Some `Aborted -> Imdb_version.Vpage.Active
  | None -> (
      match t.ptt with
      | None ->
          t.unknown_tids <- t.unknown_tids + 1;
          Imdb_version.Vpage.Unknown
      | Some ptt -> (
          match Ptt.lookup ptt tid with
          | Some ts ->
              Vtt.cache_from_ptt t.vtt tid ts;
              Imdb_version.Vpage.Committed ts
          | None ->
              t.unknown_tids <- t.unknown_tids + 1;
              Imdb_version.Vpage.Unknown))

(* VTT-only resolution for the buffer pool's pre-flush hook.

   Beyond skipping VTT misses, this also skips commits whose commit
   record is not yet durable.  A stamp is unlogged and does not advance
   the page LSN, so WAL-before-data would not force the commit record
   out before the stamped page image hits disk; were the page written
   stamped and the tail then lost in a crash, the transaction would be a
   loser yet its version would carry a committed timestamp — recovery's
   guarded undo (which looks for the unstamped TID) would skip it,
   leaving a phantom committed version.  Deferring the stamp is always
   safe: a later access or a later flush (once the commit record is
   durable) completes it. *)
let resolve_volatile_only t tid : Imdb_version.Vpage.resolution =
  match Vtt.resolve t.vtt tid with
  | Some (`Committed ts)
    when Vtt.commit_durable t.vtt tid ~flushed_lsn:(t.flushed_lsn ()) ->
      Imdb_version.Vpage.Committed ts
  | Some (`Committed _) -> Imdb_version.Vpage.Active (* commit not durable yet *)
  | Some `Active | Some `Aborted -> Imdb_version.Vpage.Active
  | None -> Imdb_version.Vpage.Active (* safe: stamp later, via the PTT *)

let on_stamp t tid =
  Vtt.note_stamped t.vtt tid ~end_of_log:(t.end_of_log ());
  Vtt.drop_if_drained_snapshot t.vtt tid

(* Stamp every committed version in [page].  Returns the number stamped;
   the caller marks the page dirty (unlogged) when non-zero. *)
let stamp_page t page =
  Imdb_version.Vpage.stamp_committed ~metrics:t.metrics page
    ~resolve:(resolve_for_stamping t) ~on_stamp:(on_stamp t)

(* The pre-flush variant: volatile resolution only. *)
let stamp_page_volatile t page =
  Imdb_version.Vpage.stamp_committed ~metrics:t.metrics page
    ~resolve:(resolve_volatile_only t) ~on_stamp:(on_stamp t)

(* Incremental PTT garbage collection (run after each checkpoint).
   [redo_scan_start] is the LSN from which a crash's redo would begin; if
   it has passed a transaction's lsn_at_zero, every unlogged stamp of that
   transaction is on disk and the mapping can go.  Returns collected
   TIDs. *)
let garbage_collect t ~redo_scan_start =
  Imdb_obs.Tracer.with_span t.tracer "ptt.gc" @@ fun sp ->
  let candidates = Vtt.gc_candidates t.vtt ~redo_scan_start in
  (* one batched PTT pass instead of a descent per candidate: collected
     TIDs are consecutive by construction, so the whole drain usually
     lands in a single leaf *)
  let persistent =
    List.filter_map
      (fun (tid, persistent) -> if persistent then Some tid else None)
      candidates
  in
  if persistent <> [] then ignore (Ptt.delete_batch (ptt_exn t) persistent);
  List.iter (fun (tid, _) -> Vtt.drop t.vtt tid) candidates;
  Imdb_obs.Metrics.observe t.metrics Imdb_obs.Metrics.h_ptt_gc_batch
    (List.length candidates);
  Imdb_obs.Tracer.add_attr sp "candidates"
    (string_of_int (List.length candidates));
  Imdb_obs.Tracer.add_attr sp "persistent"
    (string_of_int (List.length persistent));
  List.map fst candidates
