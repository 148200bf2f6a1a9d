(* The volatile timestamp table (paper Section 2.2).

   An in-memory hash table mapping TID -> (timestamp, RefCount).  It is
   both a cache over the persistent timestamp table and the bookkeeping
   device for incremental PTT garbage collection:

   - RefCount counts the record versions of a transaction that still
     carry the TID instead of a timestamp.  It is incremented on every
     insert/update/delete and decremented whenever lazy timestamping
     rewrites a version's tail.
   - When RefCount reaches zero, the end-of-log LSN is recorded
     ([lsn_at_zero]).  Once the redo-scan start point passes that LSN —
     meaning every page carrying the (unlogged!) stamping has reached
     disk — the mapping can be forgotten, VTT and PTT alike: no future
     access can need it, even across a crash.
   - Entries faulted in from the PTT after a miss, and entries recovery
     rebuilds from Commit records, have an *undefined* refcount
     ([refcount = undefined]) and are never used to trigger GC, exactly
     as in the paper.

   Mappings are posted to the PTT at checkpoint, not at commit, and
   only once the log can no longer answer for them: recovery's pass
   seeds the VTT from every Commit record at or after the redo-scan
   start, so a checkpoint posts just the mappings committed below its
   redo-scan start that its GC would keep (paper Section 2.2: a mapping
   must be durable somewhere until that start passes its stamping).
   One rule governs every lazily stamped TID, immortal or snapshot: an
   entry leaves only through GC (or, when no version ever carried its
   TID, at commit). *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module M = Imdb_obs.Metrics

let vtt_hits = M.counter_of M.vtt_hits

let undefined = -1
let no_lsn = -1L

type status = Active | Committed of Ts.t | Aborted

type entry = {
  tid : Tid.t;
  mutable status : status;
  mutable refcount : int;
  mutable lsn_at_zero : int64;
  mutable commit_end : int64; (* end-of-log when the commit record was written *)
  mutable posted : bool; (* the mapping is in the PTT *)
}

type t = { entries : entry Tid.Table.t; metrics : M.t }

let create ?(metrics = M.null) () = { entries = Tid.Table.create 256; metrics }
let find t tid = Tid.Table.find_opt t.entries tid

(* Stage I: transaction begin. *)
let begin_txn t tid =
  if Tid.Table.mem t.entries tid then
    invalid_arg (Printf.sprintf "Vtt.begin_txn: duplicate %s" (Tid.to_string tid));
  Tid.Table.replace t.entries tid
    { tid; status = Active; refcount = 0; lsn_at_zero = no_lsn;
      commit_end = no_lsn; posted = false }

(* Stage II: one more version carries this TID. *)
let incr_ref t tid =
  match find t tid with
  | Some e -> e.refcount <- e.refcount + 1
  | None -> invalid_arg (Printf.sprintf "Vtt.incr_ref: unknown %s" (Tid.to_string tid))

(* Versions removed by rollback no longer need stamping. *)
let decr_ref_rollback t tid =
  match find t tid with
  | Some e -> if e.refcount > 0 then e.refcount <- e.refcount - 1
  | None -> ()

let drop t tid = Tid.Table.remove t.entries tid

(* Stage III: commit assigns the timestamp.  A transaction no version
   carries the TID of (conventional or catalog writes only, or every
   version stamped eagerly and logged) needs no mapping, now or after a
   crash, and leaves at once. *)
let commit t tid ~ts ~end_of_log =
  match find t tid with
  | Some e when e.refcount = 0 -> drop t tid
  | Some e ->
      e.status <- Committed ts;
      e.commit_end <- end_of_log
  | None -> invalid_arg (Printf.sprintf "Vtt.commit: unknown %s" (Tid.to_string tid))

let abort t tid =
  match find t tid with
  | Some e -> e.status <- Aborted
  | None -> ()

(* Stage IV support: a version of [tid] was just stamped; when the last
   one is, remember where the log ended — the GC threshold. *)
let note_stamped t tid ~end_of_log =
  match find t tid with
  | Some e ->
      if e.refcount > 0 then begin
        e.refcount <- e.refcount - 1;
        if e.refcount = 0 && e.status <> Active then e.lsn_at_zero <- end_of_log
      end
  | None -> ()

(* A mapping whose refcount is unknown: GC never fires from it.  Its
   commit is durable, so any [commit_end] at or below the durable log
   end will do for the stamping gates. *)
let add_unreferenced t tid ts ~commit_end ~posted =
  Tid.Table.replace t.entries tid
    { tid; status = Committed ts; refcount = undefined; lsn_at_zero = no_lsn;
      commit_end; posted }

(* Cache a mapping recovered from the PTT ("we set the RefCount for the
   entry to undefined so that we don't garbage collect its PTT entry"). *)
let cache_from_ptt t tid ts = add_unreferenced t tid ts ~commit_end:0L ~posted:true

(* Recovery's mapping for a Commit record at [lsn], at or after the redo
   start: not in the PTT until a checkpoint's redo-scan start passes the
   record.  The record ends somewhere past [lsn], and it lies below a
   redo-scan start exactly when [lsn + 1] is at or below it. *)
let seed_from_log t tid ts ~lsn =
  add_unreferenced t tid ts ~commit_end:(Int64.succ lsn) ~posted:false

let resolve t tid =
  match find t tid with
  | Some { status = Committed ts; _ } ->
      M.incr t.metrics vtt_hits;
      Some (`Committed ts)
  | Some { status = Active; _ } -> Some `Active
  | Some { status = Aborted; _ } -> Some `Aborted
  | None -> None

(* Is [tid]'s commit record durable, given the log is flushed through
   [flushed_lsn]?  An on-disk stamp asserts the commit survives any
   crash, so unlogged flush-time stamping must never outrun the commit
   record: a stamp does not move the page LSN, hence WAL-before-data
   alone will not force the commit record out before the stamped page. *)
let commit_durable t tid ~flushed_lsn =
  match find t tid with
  | Some { status = Committed _; commit_end; _ } ->
      commit_end <> no_lsn && Int64.compare commit_end flushed_lsn <= 0
  | _ -> false

(* A mapping is garbage once its refcount drained and the stamping is
   provably on disk (redo-scan start point beyond lsn_at_zero). *)
let collectable e ~redo_scan_start =
  match e.status with
  | Committed _ ->
      e.refcount = 0
      && e.lsn_at_zero <> no_lsn
      && Int64.compare redo_scan_start e.lsn_at_zero > 0
  | Active | Aborted -> false

let gc_candidates t ~redo_scan_start =
  Tid.Table.fold
    (fun _ e acc -> if collectable e ~redo_scan_start then e :: acc else acc)
    t.entries []

(* Committed mappings the PTT lacks whose Commit record lies below
   [redo_scan_start] and that GC at [redo_scan_start] would keep. *)
let unposted t ~redo_scan_start =
  Tid.Table.fold
    (fun tid e acc ->
      match e.status with
      | Committed ts
        when (not e.posted)
             && Int64.compare e.commit_end redo_scan_start <= 0
             && not (collectable e ~redo_scan_start) ->
          (tid, ts) :: acc
      | _ -> acc)
    t.entries []

let mark_posted t tid =
  match find t tid with Some e -> e.posted <- true | None -> ()

(* Forget every posted mapping of undefined refcount: the PTT answers
   for it, and keeping it would pin one VTT entry per recovered or
   looked-up commit for the life of the process. *)
let drop_unreferenced t =
  let victims =
    Tid.Table.fold
      (fun tid e acc -> if e.refcount = undefined && e.posted then tid :: acc else acc)
      t.entries []
  in
  List.iter (drop t) victims

(* Forget every committed mapping no version can still need: refcount
   drained or undefined.  Returns the survivors' TIDs. *)
let drop_unneeded t =
  let victims, kept =
    Tid.Table.fold
      (fun tid e (victims, kept) ->
        match e.status with
        | Committed _ when e.refcount <= 0 -> (tid :: victims, kept)
        | Committed _ -> (victims, tid :: kept)
        | Active | Aborted -> (victims, kept))
      t.entries ([], [])
  in
  List.iter (drop t) victims;
  kept

let tids t = Tid.Table.fold (fun tid _ acc -> tid :: acc) t.entries []
