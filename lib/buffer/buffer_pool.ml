(* The buffer pool.

   Fixed-capacity page cache with pin counts, CLOCK (second-chance)
   eviction, dirty tracking with per-page recLSN, and the WAL-before-data
   rule: a dirty page is written only after the log is durable up to the
   page's LSN.

   Eviction is O(1) amortized: frames live in a fixed ring of slots and a
   clock hand sweeps it, clearing reference bits and taking the first
   unreferenced unpinned frame.  Every pin sets the frame's reference
   bit, so recently-used pages get a second chance; a sweep is bounded by
   two revolutions, after which only pinned frames remain and the pool is
   genuinely full.

   Two features exist specifically for Immortal DB's lazy timestamping:

   - a [pre_flush] hook runs on every page image just before it is written
     to disk.  The engine installs the VTT-only timestamp sweep there
     ("just before a cached page is flushed to disk, we check whether the
     page contains any non-timestamped records from committed
     transactions" — Section 2.2).  Hook changes are *not* logged and do
     not move the page LSN.

   - [mark_dirty_unlogged] records a recLSN equal to the current log end
     even though nothing was logged.  This keeps pages dirtied only by
     timestamp propagation inside the dirty-page table, so the redo-scan
     start point cannot advance past unflushed stamping — the invariant
     the PTT garbage collector relies on (Section 2.2, "we can know when
     the pages have been written to disk by tracking database
     checkpoints").

   Frames also carry an optional key directory: a sorted (key, slot)
   array the B-tree builds over a routing node's unsorted cells so
   descents binary-search instead of decoding every cell.  The directory
   is pure cache — volatile, never logged, never moving the page LSN (the
   same discipline as lazy timestamping) — and any dirtying invalidates
   it.

   A page dirtied inside the WAL's open atomic group ([Wal.atomically])
   cannot be written until the group closes; when only such pages are
   left to evict, the pool overcommits past [capacity] instead of
   failing, and later evictions bring it back down.

   Concurrency: one pool mutex guards the shared lookup/replacement state
   (frame table, CLOCK ring, free list, pin counts, dirty transitions) —
   held for that bookkeeping and across frame writeback, never across a
   caller's page work.  Frame writeback (pre-flush stamping, the WAL-before-data flush, the
   checksum seal, the disk write) runs only from eviction ([make_room]),
   [flush_page], [flush_all] and [flush_older_than], all of which hold the
   pool mutex, so the image that reaches disk is the image the WAL rule
   was checked against.  Page *content* accessed through a pinned frame
   is synchronized by the engine's session gate. *)

module M = Imdb_obs.Metrics

let buf_clock_sweeps = M.counter_of M.buf_clock_sweeps
let buf_evictions = M.counter_of M.buf_evictions
let buf_hits = M.counter_of M.buf_hits
let buf_misses = M.counter_of M.buf_misses

exception Buffer_full
exception Corrupt_page of int

type keydir = {
  kd_keys : string array; (* sorted ascending *)
  kd_slots : int array; (* kd_slots.(i) holds kd_keys.(i) *)
}

type frame = {
  f_page_id : int;
  f_bytes : bytes;
  mutable f_pin : int;
  mutable f_dirty : bool;
  mutable f_rec_lsn : int64; (* meaningful only when dirty *)
  mutable f_ref : bool; (* CLOCK reference bit *)
  mutable f_slot : int; (* position in the ring *)
  mutable f_keydir : keydir option;
}

type t = {
  disk : Imdb_storage.Disk.t;
  wal : Imdb_wal.Wal.t;
  capacity : int;
  pool_mu : Mutex.t; (* frame table, ring, free list, pins, dirty bits *)
  frames : (int, frame) Hashtbl.t;
  mutable ring : frame option array;
      (* capacity slots, swept by the hand; grows only on overcommit *)
  mutable hand : int;
  mutable free : int list; (* unoccupied ring slots *)
  mutable pre_flush : bytes -> unit;
  metrics : M.t;
}

let create ?(capacity = 256) ?(metrics = M.null) ~disk ~wal () =
  if capacity < 4 then invalid_arg "Buffer_pool.create: capacity too small";
  { disk; wal; capacity; pool_mu = Mutex.create ();
    frames = Hashtbl.create (2 * capacity);
    ring = Array.make capacity None; hand = 0;
    free = List.init capacity Fun.id; pre_flush = ignore; metrics }

let locked t f = Mutex.protect t.pool_mu f

let set_pre_flush t f = t.pre_flush <- f
let page_size t = t.disk.Imdb_storage.Disk.page_size
let touch _t f = f.f_ref <- true

(* --- the key-directory cache --------------------------------------- *)

let keydir f = f.f_keydir
let set_keydir f kd = f.f_keydir <- Some kd
let invalidate_keydir f = f.f_keydir <- None

(* --- frame ring ----------------------------------------------------- *)

let attach t f =
  match t.free with
  | [] -> raise Buffer_full (* make_room guarantees a slot; defensive *)
  | s :: rest ->
      t.free <- rest;
      f.f_slot <- s;
      t.ring.(s) <- Some f;
      Hashtbl.replace t.frames f.f_page_id f

let detach t f =
  t.ring.(f.f_slot) <- None;
  t.free <- f.f_slot :: t.free;
  Hashtbl.remove t.frames f.f_page_id

(* Write [f] out: pre-flush hook, WAL rule, checksum seal.  Caller holds
   [pool_mu]. *)
let write_frame t f =
  t.pre_flush f.f_bytes;
  let page_lsn = Imdb_storage.Page.lsn f.f_bytes in
  Imdb_wal.Wal.flush ~lsn:page_lsn t.wal;
  Imdb_storage.Page.seal f.f_bytes;
  t.disk.Imdb_storage.Disk.write_page f.f_page_id f.f_bytes;
  f.f_dirty <- false

(* CLOCK sweep: clear reference bits until an unreferenced unpinned frame
   comes under the hand.  Two revolutions suffice — the first clears every
   reference bit, so the second can only fail on pinned frames.  A frame
   dirtied inside the WAL's open atomic group is passed over too: its log
   records cannot be made durable until the group closes.  Returns false
   when only such frames stood in the way. *)
let evict_one t =
  let n = Array.length t.ring in
  let steps = ref 0 in
  let victim = ref None in
  let held_by_group = ref false in
  let in_group =
    match Imdb_wal.Wal.group_floor t.wal with
    | None -> fun _ -> false
    | Some floor ->
        fun f -> f.f_dirty && Int64.compare (Imdb_storage.Page.lsn f.f_bytes) floor >= 0
  in
  while !victim = None && !steps < 2 * n do
    incr steps;
    let i = t.hand in
    t.hand <- (t.hand + 1) mod n;
    match t.ring.(i) with
    | None -> ()
    | Some f when f.f_pin > 0 -> ()
    | Some f when in_group f -> held_by_group := true
    | Some f when f.f_ref -> f.f_ref <- false
    | Some f -> victim := Some f
  done;
  M.add t.metrics buf_clock_sweeps !steps;
  match !victim with
  | None -> if !held_by_group then false else raise Buffer_full
  | Some f ->
      if f.f_dirty then write_frame t f;
      detach t f;
      M.incr t.metrics buf_evictions;
      true

(* Overcommit: double the ring so a frame can be attached past capacity. *)
let grow t =
  let n = Array.length t.ring in
  t.ring <- Array.append t.ring (Array.make n None);
  t.free <- List.init n (fun i -> n + i) @ t.free

let make_room t =
  let rec go () =
    if Hashtbl.length t.frames >= t.capacity then
      if evict_one t then go () else if t.free = [] then grow t
  in
  go ()

(* Pin an existing page, reading (and verifying) it from disk on a miss. *)
let pin t page_id =
  locked t (fun () ->
      match Hashtbl.find_opt t.frames page_id with
      | Some f ->
          M.incr t.metrics buf_hits;
          f.f_pin <- f.f_pin + 1;
          touch t f;
          f
      | None ->
          M.incr t.metrics buf_misses;
          make_room t;
          let bytes = t.disk.Imdb_storage.Disk.read_page page_id in
          if not (Imdb_storage.Page.verify bytes) then
            raise (Corrupt_page page_id);
          let f =
            { f_page_id = page_id; f_bytes = bytes; f_pin = 1; f_dirty = false;
              f_rec_lsn = 0L; f_ref = true; f_slot = -1; f_keydir = None }
          in
          attach t f;
          f)

(* Pin a frame for a brand-new page: no disk read, caller formats it. *)
let pin_new t page_id =
  locked t (fun () ->
      if Hashtbl.mem t.frames page_id then
        invalid_arg
          (Printf.sprintf "Buffer_pool.pin_new: page %d already cached" page_id);
      make_room t;
      (* zero-filled: redo gating reads the LSN field of never-written pages *)
      let f =
        { f_page_id = page_id; f_bytes = Bytes.make (page_size t) '\000';
          f_pin = 1; f_dirty = false; f_rec_lsn = 0L; f_ref = true; f_slot = -1;
          f_keydir = None }
      in
      attach t f;
      f)

let unpin t f =
  locked t (fun () ->
      if f.f_pin <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
      f.f_pin <- f.f_pin - 1)

let bytes f = f.f_bytes
let page_id f = f.f_page_id

(* Record a logged modification: sets the page LSN and, on a clean->dirty
   transition, the recLSN. *)
let mark_dirty_logged t f ~lsn =
  locked t (fun () ->
      if not f.f_dirty then begin
        f.f_dirty <- true;
        f.f_rec_lsn <- lsn
      end;
      invalidate_keydir f;
      Imdb_storage.Page.set_lsn f.f_bytes lsn)

(* Record an *unlogged* modification (timestamp propagation).  recLSN is
   the current end of log so the dirty-page table pins the redo-scan
   start point behind this page until it reaches disk. *)
let mark_dirty_unlogged t f =
  locked t (fun () ->
      if not f.f_dirty then begin
        f.f_dirty <- true;
        f.f_rec_lsn <- Imdb_wal.Wal.next_lsn t.wal
      end;
      invalidate_keydir f)

let with_page t page_id f =
  let fr = pin t page_id in
  Fun.protect ~finally:(fun () -> unpin t fr) (fun () -> f fr)

let flush_page t page_id =
  locked t (fun () ->
      match Hashtbl.find_opt t.frames page_id with
      | Some f when f.f_dirty -> write_frame t f
      | _ -> ())

let flush_all t =
  locked t (fun () ->
      let dirty =
        Hashtbl.fold
          (fun _ f acc -> if f.f_dirty then f :: acc else acc)
          t.frames []
      in
      List.iter (fun f -> write_frame t f) dirty)

(* Flush pages that have been dirty since before [rec_lsn_limit] — the
   checkpoint-time sweep that moves the redo-scan start point forward (and
   with it, the PTT garbage-collection horizon).  Pinned pages are written
   in place. *)
let flush_older_than t ~rec_lsn_limit =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun _ f acc ->
            if f.f_dirty && Int64.compare f.f_rec_lsn rec_lsn_limit <= 0 then
              f :: acc
            else acc)
          t.frames []
      in
      List.iter (fun f -> write_frame t f) victims;
      List.length victims)

(* (page_id, recLSN) for every dirty page — the DPT stored in checkpoints. *)
let dirty_page_table t =
  locked t (fun () ->
      Hashtbl.fold
        (fun id f acc -> if f.f_dirty then (id, f.f_rec_lsn) :: acc else acc)
        t.frames []
      |> List.sort compare)

let cached_page_ids t =
  locked t (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.frames [] |> List.sort compare)

let is_cached t page_id = locked t (fun () -> Hashtbl.mem t.frames page_id)

(* Crash simulation: discard every frame without writing. *)
let drop_all t =
  locked t (fun () ->
      Hashtbl.reset t.frames;
      t.ring <- Array.make t.capacity None;
      t.free <- List.init t.capacity Fun.id;
      t.hand <- 0)

(* Drop a single (unpinned) frame without writing — used when a page is
   freed, so its stale image can never reach disk. *)
let invalidate t page_id =
  locked t (fun () ->
      match Hashtbl.find_opt t.frames page_id with
      | None -> ()
      | Some f ->
          if f.f_pin > 0 then
            invalid_arg "Buffer_pool.invalidate: page is pinned";
          detach t f)
