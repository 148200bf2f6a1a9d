(** Hierarchical span tracer — the causal companion to {!Metrics}.

    Where the metrics registry answers "how much work happened", the
    tracer answers "why was this operation slow": every traced operation
    opens a {e span} (id, parent id, name, wall-clock start, duration in
    microseconds, string attrs) and the parent links form a forest that
    follows the engine's causal structure — a commit span contains the
    group-commit flush it triggered, an update span contains the
    time-split it caused, a time-split contains the lazy stamping it
    performed.

    Design points (see DESIGN.md "Tracing"):

    - {b Scoped-only API.} [with_span] is the only way to open a span; it
      closes the span on normal return {e and} on exception
      ([Fun.protect]), so unmatched begins cannot leak.
    - {b Bounded rings.} Completed spans land in a ring of [capacity];
      when full the oldest is dropped and accounted ([dropped], plus the
      [trace.dropped] counter).  Spans whose duration reaches
      [slow_threshold_us] are additionally retained in a separate
      slow-op ring so a burst of fast spans cannot wash out the
      interesting ones.
    - {b Sampling.} [sampling = n] records every n-th {e root} span;
      children inherit their root's fate so sampled traces are always
      complete trees, never torn fragments.
    - {b Cheap when off.} The shared [null] tracer short-circuits on one
      immutable boolean before any lock or allocation.  Attribute values
      are formatted lazily ([add_attr]'s formatter, [instant]'s thunk),
      only for sampled spans.
    - {b Domain-safe.} One internal mutex guards the rings and the
      per-domain stacks of open spans, so sessions on several domains
      may record spans concurrently.
    - {b Durations are clamped monotone} ([max 0]) and the clock is
      injectable ([set_clock]) so tests run the tracer under a
      deterministic microsecond clock. *)

type t

type span
(** Handle to an open (or disabled/unsampled) span.  Attrs added to an
    unsampled handle are discarded for free. *)

val null : t
(** Shared disabled tracer: every operation is a no-op. *)

val create :
  ?capacity:int ->
  ?slow_capacity:int ->
  ?slow_threshold_us:int ->
  ?sampling:int ->
  metrics:Metrics.t ->
  unit ->
  t
(** [capacity] (default 4096) bounds the completed-span ring,
    [slow_capacity] (default 256) the slow-op ring.  [slow_threshold_us]
    (default 10_000) promotes spans at least that long.  [sampling]
    (default 1) records every n-th root span; values < 1 clamp to 1 —
    "off" is expressed by using [null].  Closing a sampled span also
    feeds [metrics]: [trace.spans], [trace.slow_ops], [trace.dropped]
    counters and a per-kind ["span.<name>_us"] duration histogram. *)

val enabled : t -> bool

val set_clock : t -> (unit -> int) -> unit
(** Replace the microsecond clock (default: [Unix.gettimeofday] scaled).
    Test hook — lets span durations be deterministic. *)

val with_span :
  t -> ?attrs:(string * string) list -> string -> (span -> 'a) -> 'a
(** [with_span t name f] opens a span, runs [f], and closes the span when
    [f] returns or raises.  The parent is the innermost open span of the
    calling domain.  When [t] is disabled this is a single branch: [f]
    gets a shared inert span.  [attrs] is built by the caller whether or
    not the span is sampled, so pass only ready-made strings there;
    anything computed goes through [add_attr]. *)

val add_attr : span -> string -> ('a -> string) -> 'a -> unit
(** [add_attr sp key fmt v] attaches [key = fmt v] to an open span.
    [fmt] runs only when [sp] is sampled, so an unsampled or disabled
    span formats nothing.  Later values win on duplicate keys at export
    time. *)

val span_id : span -> int
(** 0 for disabled/unsampled handles. *)

val instant : t -> ?attrs:(unit -> (string * string) list) -> string -> unit
(** A zero-duration point event, parented like a span.  [attrs] runs
    only when the event is recorded (tracer on, root sampled), under the
    tracer's lock: it must not call back into the tracer. *)

(** {1 Reading back} *)

type completed = {
  c_id : int;  (** unique per tracer, > 0, monotonically increasing *)
  c_parent : int;  (** 0 = root *)
  c_name : string;
  c_domain : int;  (** domain id that recorded the span *)
  c_start_us : int;
  c_dur_us : int;
  c_attrs : (string * string) list;
  c_instant : bool;
}

val spans : t -> completed list
(** Completed-span ring, oldest first. *)

val slow_ops : t -> completed list
(** Slow-op ring, oldest first. *)

val dropped : t -> int
(** Spans evicted from the completed ring since creation/[reset]. *)

val reset : t -> unit
(** Clear both rings and the drop counts.  Open spans are unaffected. *)

(** {1 Exports} *)

val to_json : t -> Json.t
(** Native export:
    {v
    { "dropped": n, "slow_dropped": n,
      "spans":   [ { "id": n, "parent": n, "name": s, "domain": n,
                     "start_us": n, "dur_us": n, "instant": b,
                     "attrs": { ... } }, ... ],
      "slow_ops": [ ...same shape... ] }
    v} *)

val to_chrome_json : t -> Json.t
(** Chrome trace-event format (loadable in Perfetto /
    [chrome://tracing]): complete "X" events with [ts]/[dur] in
    microseconds, instants as "i" events; [tid] is the recording domain
    so sessions on different domains land on separate rows, and [args]
    carries the span/parent ids plus attrs. *)

val to_json_string : t -> string
val to_chrome_string : t -> string
