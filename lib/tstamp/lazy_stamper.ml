(* Lazy timestamping: the four-stage protocol of Section 2.2, tying the
   VTT and PTT together.

   This module supplies the resolvers the stamping triggers hand to
   [Vpage.stamp], the one routine that writes a timestamp into a
   version, and the [on_stamp] bookkeeping they run after each stamp.
   Normal-access stamping ([resolve_for_stamping]) may fault PTT entries
   into the VTT.  Flush-time stamping ([resolve_volatile_only]) consults
   the VTT alone: the buffer pool calls it while evicting a page, and a
   PTT lookup there could recurse into eviction.  Skipping a VTT miss is
   always safe — a miss means either the transaction is still active
   (leave the TID), or the record will be stamped on a later access (the
   PTT entry cannot be collected while the refcount is positive).

   No stamping is ever logged.  Durability of stamping is the GC rule's
   job: a mapping survives until the redo-scan start point proves every
   stamped page reached disk.  While its Commit record lies at or after
   the redo-scan start, that record is its durable source (recovery's
   pass reads from there); a checkpoint posts it to the PTT once the
   start moves past the record and GC would still keep it. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid

let h_ptt_gc_batch =
  Imdb_obs.Metrics.histogram_of Imdb_obs.Metrics.h_ptt_gc_batch

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
let unknown_tids t = t.unknown_tids
let ptt_exn t =
  match t.ptt with Some p -> p | None -> invalid_arg "Lazy_stamper: PTT not attached"

(* Map a TID found in a record version to its fate, for normal access:
   the VTT, then the PTT, faulting a PTT hit into the VTT.  A commit
   whose commit record is still in the volatile log tail first forces
   the log.  A stamp is unlogged and does not advance the page LSN, so
   WAL-before-data alone would not push the commit record out before
   the stamped image could reach disk; a crash then loses the commit,
   the transaction becomes a loser, and recovery's guarded undo (which
   matches the *unstamped* TID) would skip the stamped version — a
   phantom committed version.  Forcing the log first restores the
   invariant that any stamp that can reach disk names a durably
   committed transaction.  The force is rare: it fires only when an
   access meets a commit younger than the last flush (another session's
   commit between its VTT switch and its sync).  It asks for that
   commit record only ([commit_end]), not the whole tail, so a force
   landing during the committer's own sync waits for that sync instead
   of paying another.  The PTT fallback needs no gate — a PTT entry
   consulted here is covered by a durable commit record (losers'
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

let on_stamp t tid = Vtt.note_stamped t.vtt tid ~end_of_log:(t.end_of_log ())

(* Checkpoint posting, before the checkpoint record: the committed
   mappings the PTT lacks whose Commit records lie below
   [redo_scan_start] go into it in one redo-only batch, since once that
   record makes [redo_scan_start] recovery's start, no pass reads those
   Commit records again — except the mappings GC at the same
   [redo_scan_start] collects, whose stamping is already on disk.  A
   mapping committed at or after [redo_scan_start] waits: recovery from
   this checkpoint seeds it from its Commit record.  Posted mappings of
   undefined refcount are then forgotten: the PTT holds them.  The caller
   runs this inside one atomic log group.  Returns the number posted. *)
let post t ~redo_scan_start =
  let fresh = Vtt.unposted t.vtt ~redo_scan_start in
  if fresh <> [] then begin
    Ptt.insert_batch (ptt_exn t) fresh;
    List.iter (fun (tid, _) -> Vtt.mark_posted t.vtt tid) fresh
  end;
  Vtt.drop_unreferenced t.vtt;
  List.length fresh

(* Incremental garbage collection, once the checkpoint that posted with
   the same [redo_scan_start] is durable.  [redo_scan_start] is the LSN
   from which a crash's redo would begin; if it has passed a
   transaction's lsn_at_zero, every unlogged stamp of that transaction
   is on disk and the mapping can go — from the VTT, and from the PTT if
   an earlier checkpoint posted it.  That PTT delete waits for this
   checkpoint's record: until then recovery may still start at the
   earlier one, whose redo can replay a page image logged before the
   stamping.  Returns collected TIDs. *)
let garbage_collect t ~redo_scan_start =
  Imdb_obs.Tracer.with_span t.tracer "ptt.gc" @@ fun sp ->
  let candidates = Vtt.gc_candidates t.vtt ~redo_scan_start in
  (* one batched PTT pass instead of a descent per candidate: collected
     TIDs are consecutive by construction, so the whole drain usually
     lands in a single leaf *)
  let posted =
    List.filter_map
      (fun e -> if e.Vtt.posted then Some e.Vtt.tid else None)
      candidates
  in
  if posted <> [] then ignore (Ptt.delete_batch (ptt_exn t) posted);
  List.iter (fun e -> Vtt.drop t.vtt e.Vtt.tid) candidates;
  Imdb_obs.Metrics.observe t.metrics h_ptt_gc_batch (List.length candidates);
  let count l = string_of_int (List.length l) in
  Imdb_obs.Tracer.add_attr sp "candidates" count candidates;
  Imdb_obs.Tracer.add_attr sp "posted" count posted;
  List.map (fun e -> e.Vtt.tid) candidates

(* Vacuum, once every version on disk carries its timestamp: forget
   every committed mapping no version still needs and every PTT entry
   but those of TIDs a version still carries.  Returns the PTT entries
   deleted. *)
let forget_stamped t =
  let ptt = ptt_exn t in
  let kept = Vtt.drop_unneeded t.vtt in
  let victims = ref [] in
  Ptt.iter ptt (fun tid _ ->
      if not (List.exists (Imdb_clock.Tid.equal tid) kept) then victims := tid :: !victims);
  Ptt.delete_batch ptt !victims
