(** SQL execution over the {!Imdb_core.Db} API.

    A session holds at most one open transaction, as in the paper's
    examples ([Begin Tran AS OF "..." ... Commit Tran]); statements
    outside an explicit transaction autocommit.  Point operations on the
    primary key use the key access path; other WHERE clauses filter a
    scan. *)

exception Exec_error of string

type result =
  | R_ok of string
  | R_rows of { header : string list; rows : Imdb_core.Schema.value list list }
  | R_history of (Imdb_clock.Timestamp.t * Imdb_core.Schema.value list option) list

type session = {
  db : Imdb_core.Db.t;
  dbs : Imdb_core.Db.Session.t;
      (** transactions run on this engine session, so each SQL session
          appears with its own id in the [SESSIONS] pragma *)
  mutable txn : Imdb_core.Db.txn option;
  mutable isolation : Imdb_core.Db.isolation;
}

val make_session : Imdb_core.Db.t -> session

val exec_string : session -> string -> result list
(** Parse and execute a script. *)

val pp_result : Format.formatter -> result -> unit
