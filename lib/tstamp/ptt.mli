(** The persistent timestamp table (paper Section 2.2): a disk-resident
    B-tree mapping TID -> commit timestamp, ordered by TID so that the
    live entries cluster at the tail even when crashes leave a residue of
    uncollectable ones.

    The commit-path insert is the single logged write that lazy
    timestamping performs per transaction; deletes are garbage
    collection, redo-only. *)

type t = {
  tree : Imdb_btree.Btree.t;
  mutable metrics : Imdb_obs.Metrics.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

val create :
  ?metrics:Imdb_obs.Metrics.t ->
  ?tracer:Imdb_obs.Tracer.t ->
  pool:Imdb_buffer.Buffer_pool.t ->
  io:Imdb_btree.Btree.io ->
  table_id:int ->
  unit ->
  t

val attach :
  ?metrics:Imdb_obs.Metrics.t ->
  ?tracer:Imdb_obs.Tracer.t ->
  pool:Imdb_buffer.Buffer_pool.t ->
  io:Imdb_btree.Btree.io ->
  root:int ->
  table_id:int ->
  unit ->
  t

val root : t -> int

val insert : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> unit
(** The commit-path write: one logged B-tree insert per transaction. *)

val lookup : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t option
val delete : t -> Imdb_clock.Tid.t -> bool

val delete_batch : t -> Imdb_clock.Tid.t list -> int
(** One GC sweep's deletions as a single batched B-tree pass (TIDs
    cluster, so the usual cost is one descent).  Counts every requested
    TID in [ptt.deletes], like per-entry {!delete} calls would; returns
    how many actually existed. *)

val count : t -> int
val iter : t -> (Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> unit) -> unit

val min_tid : t -> Imdb_clock.Tid.t option
(** The oldest TID still recorded — a measure of how well GC keeps up. *)
