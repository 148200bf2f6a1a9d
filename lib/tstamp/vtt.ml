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
     disk — the PTT entry can be deleted: no future access can need it,
     even across a crash.
   - Entries faulted in from the PTT after a miss have an *undefined*
     refcount ([refcount = undefined]) and are never used to trigger GC,
     exactly as in the paper.

   Snapshot-only transactions never touch the PTT; their entries die here
   as soon as their refcount drains. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module M = Imdb_obs.Metrics

let undefined = -1
let no_lsn = -1L

type status = Active | Committed of Ts.t | Aborted

type entry = {
  tid : Tid.t;
  mutable status : status;
  mutable refcount : int;
  mutable lsn_at_zero : int64;
  mutable commit_end : int64; (* end-of-log when the commit record was written *)
  mutable persistent : bool; (* has a PTT entry (immortal-table txn) *)
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
      commit_end = no_lsn; persistent = false }

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

(* Stage III: commit assigns the timestamp.  [persistent] marks
   transactions whose mapping was also inserted into the PTT. *)
let commit t tid ~ts ~persistent ~end_of_log =
  match find t tid with
  | Some e ->
      e.status <- Committed ts;
      e.persistent <- persistent;
      e.commit_end <- end_of_log;
      if e.refcount = 0 then e.lsn_at_zero <- end_of_log
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

(* Cache a mapping recovered from the PTT; refcount undefined so the GC
   never fires from it ("we set the RefCount for the entry to undefined so
   that we don't garbage collect its PTT entry"). *)
let cache_from_ptt t tid ts =
  (* A PTT entry is only consulted after its VTT entry was GC'd, which
     requires the commit to be durably past the redo-scan start point —
     so a cached mapping is trivially durable ([commit_end = 0]). *)
  Tid.Table.replace t.entries tid
    { tid; status = Committed ts; refcount = undefined; lsn_at_zero = no_lsn;
      commit_end = 0L; persistent = true }

let resolve t tid =
  match find t tid with
  | Some { status = Committed ts; _ } ->
      M.incr t.metrics M.vtt_hits;
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

(* Transactions whose PTT entry is now garbage: refcount drained and the
   stamping provably on disk (redo-scan start point beyond lsn_at_zero). *)
let gc_candidates t ~redo_scan_start =
  Tid.Table.fold
    (fun tid e acc ->
      match e.status with
      | Committed _
        when e.refcount = 0
             && e.lsn_at_zero <> no_lsn
             && Int64.compare redo_scan_start e.lsn_at_zero > 0 ->
          (tid, e.persistent) :: acc
      | _ -> acc)
    t.entries []

let drop t tid = Tid.Table.remove t.entries tid

(* Snapshot-only transactions are dropped the moment their refcount
   drains: nothing about them needs to survive. *)
let drop_if_drained_snapshot t tid =
  match find t tid with
  | Some e when (not e.persistent) && e.refcount = 0 && e.status <> Active -> drop t tid
  | _ -> ()
