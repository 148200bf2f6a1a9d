(** Seeded fibers: run session bodies as OCaml 5 effect-handler fibers on
    one domain, with a seeded draw at every yield picking which runnable
    session resumes, and a virtual clock.  Installed as the domain's
    {!Imdb_util.Park} scheduler for the length of a {!run}, so the
    engine's gate, log and lock waits are yields here, and lock
    deadlines fall in virtual time. *)

val run : ?at_yield:(unit -> unit) -> rng:Imdb_util.Rng.t -> (unit -> unit) array -> unit
(** Run every body to completion.  At each yield the next session is
    drawn from [rng] among the runnable ones (not parked, or parked with
    its predicate holding or its deadline reached); when every session is
    parked, the virtual clock (microseconds from 0) jumps to the earliest
    deadline.  The first exception a body, or [at_yield] (run between any
    two steps, outside every fiber), raises ends the run and is
    re-raised; the other bodies are abandoned, never resumed.
    @raise Failure when every unfinished session is parked with no
    deadline *)

val yield : unit -> unit
(** A scheduling point inside {!run}; a no-op outside one. *)
