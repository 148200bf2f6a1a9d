(** Transaction timestamps.

    Following the paper (Section 2.1), a timestamp concatenates an 8-byte
    clock time [ttime] — milliseconds since the Unix epoch, quantized to
    the 20 ms resolution of the SQL date/time type — with a 4-byte
    sequence number [sn] distinguishing up to 2^32 transactions inside one
    quantum.  Ordering is lexicographic on (ttime, sn) and, because
    timestamps are issued at commit by a monotonic clock, agrees with
    transaction serialization order. *)

type t

val quantum_ms : int64
(** The clock resolution: 20 ms. *)

val on_disk_size : int
(** Serialized size: 12 bytes (8 + 4). *)

val make : ttime:int64 -> sn:int -> t
(** @raise Invalid_argument if [sn] exceeds 32 bits or [ttime] < 0. *)

val ttime : t -> int64
val sn : t -> int

val zero : t
(** Below every real timestamp (the dawn of time). *)

val infinity : t
(** Above every real timestamp: the open end time of a live version. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val succ : t -> t
(** The next representable timestamp (sequence-number increment, rolling
    into the next quantum on overflow). *)

val quantize : int64 -> int64
(** Round milliseconds down to the 20 ms quantum. *)

(** Comparison operators for local opens. *)
module Infix : sig
  val ( <= ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( = ) : t -> t -> bool
end

(** {1 Serialization} *)

val write : bytes -> int -> t -> unit
val read : bytes -> int -> t

(** {1 Datetime formatting}

    ["YYYY-MM-DD HH:MM:SS.mmm+sn"] in UTC — the representation the AS OF
    clause parses, "a user sensible time representation". *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** Parse ["YYYY-MM-DD[ HH:MM[:SS[.mmm]][+sn]]"].
    @raise Failure on malformed input. *)
