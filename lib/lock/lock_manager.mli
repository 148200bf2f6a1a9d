(** Lock manager: strict two-phase locking for the serializable path,
    with multigranularity intention locks and wait-for-graph deadlock
    detection.

    The lock table, the held index and the wait-for graph share one
    mutex and one condition variable.  The engine's session gate already
    serializes every caller except parked waiters, so one mutex costs
    nothing, and it keeps the manager safe to call from any domain on
    its own.  There is one acquisition function, {!acquire}: a conflict
    runs deadlock detection at edge insert, then either gives up at once
    (timeout 0, the single-session engine's fail-fast protocol) or parks
    until granted, with timeout-based victim selection (the waiter is the
    victim).  Snapshot-isolation readers never call in at all — that is
    the point of the versioning machinery. *)

type resource = Table of int | Record of int * string

val pp_resource : Format.formatter -> resource -> unit

type mode = IS | IX | S | X

val pp_mode : Format.formatter -> mode -> unit

val compatible : mode -> mode -> bool
(** The standard multigranularity compatibility matrix. *)

val lub : mode -> mode -> mode
(** Upgrade merge: the least upper bound of two modes, with S+IX
    collapsed to X (no SIX mode). *)

type t

val create : unit -> t

val set_metrics : t -> Imdb_obs.Metrics.t -> unit
(** Point the manager at an engine's registry: grants, conflicts,
    deadlocks, timeouts and the blocking-wait duration histogram. *)

val set_tracer : t -> Imdb_obs.Tracer.t -> unit
(** Parked waits record a "lock.wait" span (res/mode attrs) spanning
    park-to-grant (or to deadlock/timeout). *)

exception Deadlock of Imdb_clock.Tid.t
(** Raised (naming the requester, the victim) when granting the wait
    would close a cycle. *)

exception Lock_timeout of { tid : Imdb_clock.Tid.t; res : resource }
(** The request gave up: at once on a conflict under timeout 0, or at
    the deadline of a parked wait.  The waiter is the victim and should
    abort. *)

val acquire :
  ?on_park:(unit -> unit -> unit) ->
  timeout_us:int ->
  t -> Imdb_clock.Tid.t -> resource -> mode -> int
(** Acquire or upgrade; re-requests are idempotent.  Returns the
    wall-clock microseconds spent parked (0 when granted without
    parking), which callers fold into per-transaction wait accounting.

    A conflict records the requester's wait-for edge; closing a cycle
    raises [Deadlock].  With [timeout_us = 0] the request then erases
    its edge and raises [Lock_timeout] at once: no park, no "lock.wait"
    span, no [lock.wait_us] observation, and it counts as a conflict,
    not a timeout.  Otherwise it parks on the manager's condition
    variable; releases of conflicting locks re-probe the grant, and a
    process-wide ticker thread (spawned on the first park) bounds the
    delay until the deadline is noticed.

    [on_park ()] runs once, under the manager's mutex, just before the
    first park; the function it returns runs after that mutex is
    released, whatever the outcome.  The engine releases its session
    gate there and retakes it after, so the gate is released exactly
    while the session is parked.

    @raise Deadlock at edge insert
    @raise Lock_timeout at once (timeout 0) or at the deadline *)

val holds : t -> Imdb_clock.Tid.t -> resource -> mode option

val release_all : t -> Imdb_clock.Tid.t -> unit
(** Strict 2PL: everything is released together at commit/abort; every
    parked waiter is woken to re-probe. *)

val held_by : t -> Imdb_clock.Tid.t -> resource list

(** {1 Introspection} *)

type dump = {
  d_holders : (resource * Imdb_clock.Tid.t * mode) list;
      (** every granted lock, sorted *)
  d_waiters : (Imdb_clock.Tid.t * resource * mode * Imdb_clock.Tid.t list) list;
      (** every parked/blocked request: requested resource and mode plus
          the live wait-for edges, sorted *)
}

val dump : t -> dump
(** One consistent cut of the whole lock table, taken under the
    manager's mutex: every blocker named by a waiter edge appears among
    [d_holders] for the waited-on resource in the same dump. *)

val dump_json : t -> Imdb_obs.Json.t
(** [dump] as the stable JSON consumed by [imdb locks], the SQL [LOCKS]
    pragma and flight-recorder reports:
    [{"holders": [{"resource", "tid", "mode"}...],
      "waiters": [{"tid", "resource", "mode", "waits_for": [tid...]}...]}]. *)
