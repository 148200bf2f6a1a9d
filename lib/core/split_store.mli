(** Split-store baseline: the storage organization the paper argues
    against (Section 6.3, Postgres-style).  Current versions in one
    B-tree; displaced versions archived to a separate history B-tree
    keyed by (key, start-timestamp).  Current reads touch one store; AS
    OF reads must in general consult both, and AS OF scans must merge
    them — the measured cost of the design. *)

exception Unresolved_tid of Imdb_clock.Tid.t

type t

val create : Engine.t -> table_id:int -> t

(** {1 Writes} (transactional; X-locked; snapshot-isolation validation is
    the engine's) *)

val insert : t -> Engine.txn -> key:string -> payload:string -> unit
val update : t -> Engine.txn -> key:string -> payload:string -> unit
val delete : t -> Engine.txn -> key:string -> unit

(** {1 Reads} *)

val read_current : t -> Engine.txn -> key:string -> string option

val read_as_of :
  t -> Engine.txn -> key:string -> ts:Imdb_clock.Timestamp.t -> string option
(** Probes the current store, then falls through to the history store —
    the double access the paper critiques. *)

val scan_as_of :
  t -> Engine.txn -> ts:Imdb_clock.Timestamp.t -> (string -> string -> unit) -> unit
(** Merges the current store with a full history-store traversal. *)

val history_count : t -> int
