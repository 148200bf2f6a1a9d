(** One way to block: the engine's session gate, the log's device lock
    and group-commit followers, and a lock request parked on a conflict
    all wait through this module.  By default a session is a domain, time
    is the wall clock and a blocked session sleeps on a condition
    variable; a scheduler that runs sessions as fibers on one domain
    {!install}s itself there and takes over all three — which is how the
    torture harness replays an interleaving from a seed and fires lock
    timeouts in virtual time, with no engine parameter. *)

type scheduler = {
  self : unit -> int;  (** the running session: never 0, never [domain id + 1] *)
  now_us : unit -> int;  (** its clock *)
  block : deadline_us:int option -> (unit -> bool) -> unit;
      (** run the other sessions until the predicate holds or [now_us]
          reaches the deadline *)
}

val install : scheduler option -> unit
(** Mark the calling domain as run by the scheduler ([None]: unmark). *)

val self : unit -> int
(** The calling session: the scheduler's, or the domain id + 1. *)

val now_us : unit -> int
(** The scheduler's clock, or wall-clock microseconds. *)

type lock
(** A mutex reentrant per {!self}. *)

val lock : unit -> lock
val acquire : lock -> unit
val release : lock -> unit

val holder : lock -> int
(** [self] of the holder, 0 when free. *)

val suspend : lock -> unit -> unit
(** Fully release the lock if the caller holds it; returns the function
    that retakes it at the same depth (a no-op if it was not held). *)

type spot
(** A mutex and the condition its waiters sleep on. *)

val spot : unit -> spot
val protect : spot -> (unit -> 'a) -> 'a

val wait : ?deadline_us:int -> spot -> (unit -> bool) -> unit
(** Inside {!protect}: block, with the mutex released, until the
    predicate holds or [now_us] reaches the deadline.  Returns at once if
    the predicate holds. *)

val wake : spot -> unit
(** Wake the spot's waiters to re-check their predicates. *)

val tickers_started : unit -> int
(** Ticker threads started so far: without a scheduler a deadline wait
    needs one (the condition variable has no timed wait), which wakes
    deadline waiters every 2 ms while any is parked. *)
