(** Record versions as stored in data-page cells (paper Fig. 1).

    Every version carries a 14-byte tail mirroring the bytes SQL Server
    uses for snapshot versioning, repurposed as the paper describes:

    {v  VP(2) | Ttime(8) | SN(4)  v}

    [VP] is the version pointer — the slot number of the previous version
    of the record, in this page or (when [f_vp_in_history] is set) in the
    page named by the page header's history pointer.  [Ttime] holds either
    the version's commit clock time or, until lazy timestamping reaches
    it, the updating transaction's TID.  [SN] is the timestamp sequence
    number, assigned when the version is stamped. *)

val tail_size : int
(** 14 bytes. *)

val fixed_overhead : int
(** Header + tail framing bytes per record. *)

val no_vp : int
(** VP value meaning "no previous version". *)

(** Flag bits (first byte of the record): *)

val f_delete_stub : int
(** this version is a delete stub: the record was deleted at its time *)

val f_vp_in_history : int
(** VP names a slot in the page's historical page, not a local slot *)

val f_non_current : int
(** an old version, shadowed by a newer one (not in the logical slot view) *)

type t = {
  flags : int;
  key : string;
  payload : string;
  vp : int;
  ttime : Imdb_clock.Tid.ttime_field;
  sn : int;
}

val vp_in_history : t -> bool

val size : key:string -> payload:string -> int
(** Encoded size of a version with these fields. *)

val encode : t -> bytes
val decode : bytes -> t

(** {1 In-place access on a page}

    The workhorses of lazy timestamping: stamping rewrites only the
    14-byte tail of a cell, without re-encoding the record. *)

val in_page_key : bytes -> int -> string
val in_page_payload : bytes -> int -> string

val in_page_key_matches : bytes -> int -> string -> bool
(** Allocation-free key equality — the hot path of every in-page lookup. *)

val key_bytes_equal : bytes -> int -> string -> int -> int -> bool
(** [key_bytes_equal page off key klen i]: raw comparison helper used by
    manual scan loops. *)

val in_page_flags : bytes -> int -> int
val set_in_page_flags : bytes -> int -> int -> unit
val in_page_vp : bytes -> int -> int
val set_in_page_vp : bytes -> int -> int -> unit
val in_page_ttime : bytes -> int -> Imdb_clock.Tid.ttime_field
val set_in_page_ttime : bytes -> int -> Imdb_clock.Tid.ttime_field -> unit
val in_page_sn : bytes -> int -> int
val set_in_page_sn : bytes -> int -> int -> unit

val in_page_timestamp : bytes -> int -> Imdb_clock.Timestamp.t option
(** The version's start timestamp, or [None] while it carries a TID. *)

val tail_offset_in_body : bytes -> int -> int
(** Offset of the tail relative to the cell body — the coordinate WAL
    [Op_patch] records use. *)

val read_in_page : bytes -> int -> t

val with_links : bytes -> flags:int -> vp:int -> bytes
(** Copy of an encoded record with flags and version pointer rewritten —
    how splits re-home versions while rewiring their chains. *)

val pp : Format.formatter -> t -> unit
