(** Page-granularity storage devices.

    The engine reads and writes whole pages through this record of
    functions, so the same code runs over a real file, a deterministic
    in-memory platter, or a failure-injecting wrapper.  A crash in tests
    is simply dropping all volatile structures and reopening over the
    same device: whatever [write_page] stored is what survives. *)

type t = {
  page_size : int;
  read_page : int -> bytes;
      (** Fresh copy of a page's bytes.  @raise Page_missing *)
  write_page : int -> bytes -> unit;
      (** Store a copy of the page (copy semantics: later mutation of the
          argument does not affect the platter). *)
  page_exists : int -> bool;
  page_count : unit -> int;  (** one past the highest page id written *)
  sync : unit -> unit;
  close : unit -> unit;
  metrics : Imdb_obs.Metrics.t ref;
      (** registry charged for reads/writes; a [ref] so that wrappers
          built with [{ inner with ... }] share it with the wrapped
          device's closures *)
}

exception Page_missing of int
exception Io_failure of string

val set_metrics : t -> Imdb_obs.Metrics.t -> unit
(** Point the device (and anything sharing its [metrics] ref, e.g. a
    [failing] wrapper) at an engine's registry. *)

val in_memory : ?metrics:Imdb_obs.Metrics.t -> page_size:int -> unit -> t
(** Deterministic in-memory device (tests, benchmarks, crash simulation). *)

val file : ?metrics:Imdb_obs.Metrics.t -> path:string -> page_size:int -> unit -> t
(** File-backed device; [sync] is fsync. *)

(** Which writes a {!failure_plan}'s countdown counts — operation-targeted
    triggers, so a crash can be aimed at "the Nth history-page write"
    (mid-time-split) or "the next meta-page write" (mid-checkpoint)
    without counting unrelated traffic. *)
type write_target =
  | Any_write
  | Writes_of_type of Page.page_type list
      (** writes of pages whose sealed header carries one of these types *)
  | Writes_to_page of int  (** writes of one page id (0 = the meta page) *)
  | Writes_matching of (int -> bytes -> bool)
      (** arbitrary predicate over (page id, sealed image); exceptions in
          the predicate count as "no match" *)

(** Injected-failure control block for [failing]. *)
type failure_plan = {
  mutable writes_until_failure : int;  (** -1 never; 0 = next targeted write fails *)
  mutable tear_on_failure : bool;
      (** the failing write persists only the first half of the page *)
  mutable target : write_target;  (** which writes count *)
  mutable dead : bool;
      (** set when the plan fires: the device rejects every write until
          the plan is lifted or re-armed *)
  mutable fired : int;
      (** failures injected so far (never reset); dead-device rejections
          after the fire do not count *)
}

val never_fail : unit -> failure_plan

val arm : failure_plan -> ?tear:bool -> ?target:write_target -> after:int -> unit -> unit
(** Arm the plan: the [after]-th upcoming write matching [target]
    (0 = the next one) fails, tearing the page first if [tear]. *)

val lift : failure_plan -> unit
(** Disarm: no further injected failures ([fired] is preserved). *)

val failing : plan:failure_plan -> t -> t
(** Wrap a device so the plan can crash it at an exact write.  Once the
    plan fires, every subsequent write raises [Io_failure] (the device is
    dead) until the plan is lifted. *)
