(** Minimal JSON values: just enough for the stats/bench exposition
    schema, with a printer whose output is byte-stable for a given value
    and a parser for round-trip tests.  No external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys emitted in list order *)

val to_string : t -> string
(** Compact rendering; object keys appear in list order, so sorting the
    pairs before construction yields a byte-stable document. *)

val pp : Format.formatter -> t -> unit

val parse : string -> (t, string) result
(** Recursive-descent parser for the subset [to_string] emits (numbers,
    strings with escapes, arrays, objects, literals). *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_list : t -> t list option
