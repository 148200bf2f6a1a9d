(** Table schemas and typed row values.

    The engine stores raw byte strings; a schema maps typed rows onto
    them.  The first column of every schema is the primary key, encoded
    order-preservingly so that B-tree order equals value order. *)

type column_type = T_int | T_string | T_bool | T_float

type column = { col_name : string; col_type : column_type }

type t
(** A schema: a non-empty list of columns, the first being the key. *)

type value = V_int of int | V_string of string | V_bool of bool | V_float of float

exception Type_error of string

val make : column list -> t
(** @raise Invalid_argument on empty or duplicate-named columns. *)

val columns : t -> column list
val key_column : t -> column

val column_index : t -> string -> int option
(** Position of a column by name. *)

val type_name : column_type -> string
(** SQL-ish name: INT, VARCHAR, BOOL, FLOAT. *)

val type_of_name : string -> column_type option
(** Parse a SQL type name (INT, INTEGER, VARCHAR, TEXT, BOOL, FLOAT, ...). *)

val pp_value : Format.formatter -> value -> unit

val compare_values : value -> value -> int
(** @raise Type_error when the values have different types. *)

(** {1 Key encoding}

    Order-preserving: for two values of the same type,
    [String.compare (encode_key a) (encode_key b)] has the sign of
    [compare_values a b]. *)

val encode_key : value -> string
val decode_key : string -> value

(** {1 Row encoding}

    A row travels as (encoded key, payload of the non-key columns). *)

val key_of_row : t -> value list -> string
val payload_of_row : t -> value list -> string
val row_of_parts : t -> key:string -> payload:string -> value list

(** {1 Schema (de)serialization} — used by the catalog. *)

val encode : t -> bytes
val decode_from : Imdb_util.Codec.Reader.t -> t
val pp : Format.formatter -> t -> unit
