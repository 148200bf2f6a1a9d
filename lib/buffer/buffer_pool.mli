(** The buffer pool.

    Fixed-capacity page cache with pin counts, O(1)-amortized CLOCK
    (second-chance) eviction, dirty tracking with per-page recLSN, and
    the WAL-before-data rule: a dirty page is written only after the log
    is durable up to the page's LSN.

    Two features exist specifically for Immortal DB's lazy timestamping:
    the [pre_flush] hook runs on every image just before it is written
    (the engine installs the VTT-only timestamp sweep there), and
    [mark_dirty_unlogged] records a recLSN for changes that were {e not}
    logged, keeping stamped-but-unflushed pages inside the dirty-page
    table so the redo-scan start point — and with it the PTT garbage
    collector — cannot outrun them.

    A page dirtied inside the WAL's open atomic group
    ({!Imdb_wal.Wal.atomically}) is never evicted before the group
    closes; when only such pages stand in the way, the pool overcommits
    past [capacity] rather than fail.

    The pool is domain-safe: a pool mutex guards lookup/replacement state
    (frame table, CLOCK ring, pins, dirty bits) and is held across every
    frame writeback (eviction and the flush calls), so the WAL-before-data
    check and the disk write are atomic per frame.  Page content reached
    through a pinned frame is synchronized by the engine's session gate. *)

type t
type frame

exception Buffer_full
(** No evictable (unpinned) frame remains. *)

exception Corrupt_page of int
(** A page read from disk failed checksum verification. *)

val create :
  ?capacity:int ->
  ?metrics:Imdb_obs.Metrics.t ->
  disk:Imdb_storage.Disk.t ->
  wal:Imdb_wal.Wal.t ->
  unit ->
  t

val set_metrics : t -> Imdb_obs.Metrics.t -> unit
(** Point the pool at an engine's registry (hits/misses/evictions). *)

val set_pre_flush : t -> (bytes -> unit) -> unit
(** Hook run on the page image just before each disk write; its changes
    are persisted but not logged and do not move the page LSN. *)

val page_size : t -> int

(** {1 Pinning} *)

val pin : t -> int -> frame
(** Pin a page, reading (and verifying) it from disk on a miss. *)

val pin_new : t -> int -> frame
(** Frame for a brand-new page: no disk read; zero-filled; the caller
    formats it. *)

val unpin : t -> frame -> unit
val with_page : t -> int -> (frame -> 'a) -> 'a
(** Pin, apply, unpin (exception-safe). *)

val bytes : frame -> bytes
val page_id : frame -> int

(** {1 Key-directory cache}

    A sorted (key, slot) directory the B-tree attaches to the frame of a
    routing (internal) node so descents binary-search instead of decoding
    every cell of the unsorted slot array.  Pure cache: volatile, never
    logged, never moving the page LSN (the same discipline as lazy
    timestamping).  Any dirtying — logged or unlogged — invalidates it;
    eviction discards it with the frame. *)

type keydir = {
  kd_keys : string array;  (** sorted ascending *)
  kd_slots : int array;  (** [kd_slots.(i)] holds [kd_keys.(i)] *)
}

val keydir : frame -> keydir option
val set_keydir : frame -> keydir -> unit

(** {1 Dirty tracking} *)

val mark_dirty_logged : t -> frame -> lsn:int64 -> unit
(** A logged change: sets the page LSN; first dirtying records recLSN. *)

val mark_dirty_unlogged : t -> frame -> unit
(** An unlogged change (timestamp propagation): recLSN is the current end
    of log, pinning the redo-scan start point behind this page. *)

val dirty_page_table : t -> (int * int64) list
(** (page id, recLSN) for every dirty page — the checkpoint DPT. *)

(** {1 Flushing} *)

val flush_page : t -> int -> unit
val flush_all : t -> unit

val flush_older_than : t -> rec_lsn_limit:int64 -> int
(** Write out pages dirty since before [rec_lsn_limit] — the
    checkpoint-time sweep that moves the redo-scan start point (and the
    PTT GC horizon) forward.  Returns the number written. *)

(** {1 Cache management} *)

val invalidate : t -> int -> unit
(** Drop a single unpinned frame without writing (freed pages).
    @raise Invalid_argument if pinned. *)

val drop_all : t -> unit
(** Crash simulation: discard every frame without writing. *)

val is_cached : t -> int -> bool
val cached_page_ids : t -> int list
