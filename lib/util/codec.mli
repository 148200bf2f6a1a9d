(** Binary encoding helpers over [bytes].

    All multi-byte integers are little-endian, matching the on-disk
    format of pages, records and log frames.  Every accessor bounds-checks
    and raises {!Out_of_bounds} with context, so a corrupt page surfaces
    as a diagnosable error. *)

exception Out_of_bounds of string

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit
val get_i64 : bytes -> int -> int64
val set_i64 : bytes -> int -> int64 -> unit

val get_int : bytes -> int -> int
(** An OCaml [int] stored in 8 bytes. *)

val set_int : bytes -> int -> int -> unit
val get_bytes : bytes -> int -> int -> bytes
val set_bytes : bytes -> int -> bytes -> unit
val get_string : bytes -> int -> int -> string
val set_string : bytes -> int -> string -> unit

val write_lstring : bytes -> int -> string -> int
(** u16-length-prefixed string; returns the position past it. *)

val read_lstring : bytes -> int -> string * int

(** Growable output buffer for variable-size structures. *)
module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val int : t -> int -> unit
  val bytes : t -> bytes -> unit
  val string : t -> string -> unit
  val lstring : t -> string -> unit
  val lbytes : t -> bytes -> unit

  val lbytes32 : t -> bytes -> unit
  (** 32-bit length prefix (page images). *)

  val varint64 : t -> int64 -> unit
  (** Unsigned LEB128 of the 64-bit word (negative values round-trip,
      costing the full 10 bytes). *)

  val varint : t -> int -> unit
  (** Unsigned LEB128 of a non-negative [int]; raises on negatives. *)

  val contents : t -> bytes
end

(** Decoding cursor mirroring {!Writer}. *)
module Reader : sig
  type t = { buf : bytes; mutable pos : int }

  val create : ?pos:int -> bytes -> t
  val eof : t -> bool
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val bytes : t -> int -> bytes
  val string : t -> int -> string
  val lstring : t -> string
  val lbytes : t -> bytes
  val lbytes32 : t -> bytes
  val varint64 : t -> int64
  val varint : t -> int
end
