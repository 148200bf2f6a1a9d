(** The persistent timestamp table (paper Section 2.2): a disk-resident
    B-tree mapping TID -> commit timestamp, ordered by TID so that the
    live entries cluster at the tail even when crashes leave a residue of
    uncollectable ones.

    Mappings are posted at checkpoint, in one redo-only batch appended
    at the tree's right edge, only for committed TIDs that some version
    may still carry once recovery's start moves past their Commit
    records; deletes are garbage collection, redo-only too. *)

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

val insert_batch : t -> (Imdb_clock.Tid.t * Imdb_clock.Timestamp.t) list -> unit
(** A checkpoint's posting as one redo-only batched B-tree pass
    ({!Imdb_btree.Btree.insert_batch}: TIDs above every posted one fill
    leaves at the right edge); counts every mapping in [ptt.inserts]. *)

val lookup : t -> Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t option

val delete_batch : t -> Imdb_clock.Tid.t list -> int
(** One GC sweep's deletions as a single batched B-tree pass (TIDs
    cluster, so the usual cost is one descent).  Counts every requested
    TID in [ptt.deletes]; returns how many actually existed. *)

val count : t -> int
val iter : t -> (Imdb_clock.Tid.t -> Imdb_clock.Timestamp.t -> unit) -> unit

val min_tid : t -> Imdb_clock.Tid.t option
(** The oldest TID still recorded — a measure of how well GC keeps up. *)
