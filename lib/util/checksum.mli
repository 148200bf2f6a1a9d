(** CRC-32 (IEEE 802.3, reflected), eight bytes per step and
    allocation-free: validates page images and log frames; a mismatch
    signals a torn or corrupt write. *)

val range : bytes -> pos:int -> len:int -> int
(** CRC over [len] bytes from [pos] as an unsigned int (fits 32 bits). *)

val bytes_int : bytes -> int
(** {!range} over the whole of [b]. *)

val bytes : bytes -> int32
