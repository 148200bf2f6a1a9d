(** Continuous monitor: periodic [Metrics.snapshot]s in a bounded ring,
    with derived rates between the two newest samples.

    Sampling is either manual ([sample] — what tests do, with an
    injectable clock, so results are deterministic) or driven by a
    background thread ([start]/[stop]) on a wall-clock interval.  The
    shared [null] monitor short-circuits every operation on one branch,
    so an engine without monitoring pays nothing and perturbs no
    counters (proved by the BENCH_obsov gate). *)

type t

type sample = {
  s_seq : int;  (** monotonic per monitor, survives ring eviction *)
  s_at_us : int64;  (** clock at capture, microseconds *)
  s_counters : Metrics.snapshot;
}

type rates = {
  r_interval_us : int64;  (** span between the two newest samples *)
  r_txn_per_s : float;
  r_wal_bytes_per_s : float;
  r_splits_per_s : float;  (** time splits + key splits *)
  r_stamping_backlog : int;
      (** ptt.inserts - ptt.deletes at the newest sample: mappings
          checkpoints posted because some version might still carry the
          TID, and GC has not yet retired.  Commits since the last
          checkpoint are not in it.  A level, not a rate. *)
}

val null : t
(** Shared disabled monitor: [sample]/[start]/[stop] are no-ops,
    [samples] is empty, [rates] is [None]. *)

val create :
  ?interval_ms:int -> ?capacity:int -> ?clock_us:(unit -> int64) -> Metrics.t -> t
(** [clock_us] defaults to wall time; tests inject a logical source.
    [interval_ms] (default 1000) only matters for [start];
    [capacity] (default 600) bounds the ring. *)

val enabled : t -> bool
val interval_ms : t -> int

val sample : t -> unit
(** Capture one snapshot now.  Increments [Metrics.monitor_samples]
    (and [monitor_dropped] when the ring evicts). *)

val samples : t -> sample list
(** Oldest first. *)

val dropped : t -> int
val rates : t -> rates option

val to_json : t -> Json.t
(** The whole ring plus newest-interval rates and current p50/p90/p99 of
    every histogram — the payload embedded in flight-recorder reports
    and printed by [imdb monitor]. *)

val start : t -> unit
(** Spawn the background sampler thread (idempotent; no-op on [null]). *)

val stop : t -> unit
(** Signal and join the sampler thread.  Returns within ~50 ms; safe to
    call when never started. *)
