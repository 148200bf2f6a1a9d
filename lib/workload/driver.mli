(** Experiment driver: replay a moving-objects event stream against a
    table — one transaction per event, the paper's worst case — and
    measure elapsed time plus the deterministic work counters. *)

val moving_objects_schema : Imdb_core.Schema.t
(** The paper's table: MovingObjects(Oid INT PRIMARY KEY, LocationX INT,
    LocationY INT). *)

(** The heaviest structure work one transaction ran, read from registry
    counter deltas: a time split runs inside an ingest flush, and a
    checkpoint may follow either. *)
type commit_work = Cw_none | Cw_flush | Cw_time_split | Cw_checkpoint

type run_result = {
  rr_events : int;
  rr_elapsed_s : float;
  rr_counters : Imdb_obs.Metrics.snapshot;
  rr_commit_ts : Imdb_clock.Timestamp.t list;  (** sampled, oldest first *)
  rr_commit_latency : (float * commit_work) array;
      (** {!run_events} only, per event: wall µs from begin to commit
          return, and the structure work it ran *)
}

val run_events :
  ?clock:Imdb_clock.Clock.t ->
  ?sample_every:int ->
  Imdb_core.Db.t ->
  table:string ->
  Moving_objects.event list ->
  run_result

val run_events_batched :
  ?clock:Imdb_clock.Clock.t ->
  batch:int ->
  Imdb_core.Db.t ->
  table:string ->
  Moving_objects.event list ->
  run_result
(** [batch] records per transaction — the paper's amortization case. *)

val counter : run_result -> string -> int

val fresh_moving_objects :
  ?config:Imdb_core.Engine.config ->
  mode:Imdb_core.Catalog.table_mode ->
  unit ->
  Imdb_core.Db.t * Imdb_clock.Clock.t
(** A fresh in-memory database with the MovingObjects table. *)

val timed_scan_current : Imdb_core.Db.t -> table:string -> float * int

type scan_measure = {
  sm_elapsed_s : float;
  sm_rows : int;
  sm_pages : int;  (** pages visited on the temporal access path *)
  sm_misses : int;  (** buffer misses: real page reads *)
}

val measured_scan_as_of :
  Imdb_core.Db.t -> table:string -> ts:Imdb_clock.Timestamp.t -> scan_measure
