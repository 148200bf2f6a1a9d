(** CRC-32 (IEEE 802.3, reflected), allocation-free: validates page images
    and log frames; a mismatch signals a torn or corrupt write. *)

val bytes_int : ?pos:int -> ?len:int -> bytes -> int
(** CRC over the range as an unsigned int (fits 32 bits). *)

val bytes : ?pos:int -> ?len:int -> bytes -> int32
