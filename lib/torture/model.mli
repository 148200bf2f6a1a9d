(** The linearized in-memory oracle the torture harness checks the engine
    against.

    The model is the committed history itself: an append-only array of
    commits, each a timestamp plus the writes it applied.  Serialization
    order equals commit-timestamp order (concurrent sessions' commits are
    merged in timestamp order), so every query the engine supports has an
    obvious reference answer:

    - the state {e as of} [ts] is the fold of all commits with
      [c_ts <= ts];
    - a record's history is the subsequence of commits touching its key.

    Every commit recorded here was acknowledged durable, so no crash may
    erase any of them.

    The model never looks at the engine; the harness compares the two. *)

module Ts := Imdb_clock.Timestamp

type write = {
  w_table : string;
  w_key : string;
  w_value : string option;  (** [None] = delete (a delete stub) *)
}

type commit = {
  c_ts : Ts.t;
  c_writes : write list;
  c_tag : int;  (** harness op counter at commit, for diagnostics *)
}

type t

val create : tables:string list -> t

val record : t -> ts:Ts.t -> tag:int -> write list -> unit
(** Append a commit.  @raise Invalid_argument if [ts] does not strictly
    increase or a write names an unknown table. *)

val commit_count : t -> int

val commits : t -> commit list
(** Oldest first. *)

val current_state : t -> table:string -> (string * string) list
(** Live keys and their latest values, sorted by key. *)

val mem : t -> table:string -> key:string -> bool
(** Is the key live (present and not deleted) in the current state? *)

val value_of : t -> table:string -> key:string -> string option

val state_at : t -> table:string -> Ts.t -> (string * string) list
(** The table's rows as of [ts], sorted by key — the reference answer for
    [scan_as_of]. *)

val iter_states :
  t -> table:string -> f:(ts:Ts.t -> tag:int -> state:(string * string) list -> unit) -> unit
(** One chronological sweep calling [f] at {e every} commit timestamp with
    the table's expected state as of that timestamp (sorted).  O(commits)
    state maintenance total, against the naive O(commits²) of repeated
    [state_at]. *)

val histories : t -> table:string -> (string, (Ts.t * string option) list) Hashtbl.t
(** Every key ever written mapped to its
    version history, newest first, [None] marking deletions — the
    reference answer for [history]. *)
