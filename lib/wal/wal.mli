(** The write-ahead log: an append-only stream of checksummed frames.

    The LSN of a record is the byte offset of its frame; LSN order is the
    total order of all logged actions.  Appends buffer in memory; [flush]
    makes the prefix durable (the buffer pool calls it before any page
    write — WAL before data — and commit calls it at the commit record).
    Reopening after a crash scans the durable stream and truncates the
    first torn or corrupt frame.

    Safe to share across domains: an append reserves its LSN and queues
    its frame on the one volatile tail under one mutex, and device
    access is serialized separately, so concurrent commits batch into
    one sync (group commit). *)

(** Log storage devices. *)
module Device : sig
  type t = {
    size : unit -> int;  (** durable bytes *)
    append : bytes -> unit;
    read : pos:int -> len:int -> bytes;
    truncate : int -> unit;
    sync : unit -> unit;
    close : unit -> unit;
  }

  val in_memory : unit -> t
  val file : path:string -> t
end

type t

val open_device : ?metrics:Imdb_obs.Metrics.t -> Device.t -> t
(** Open, scanning for the valid end of log (truncating a torn tail). *)

val set_metrics : t -> Imdb_obs.Metrics.t -> unit
(** Point the log at an engine's registry (appends, flushes, byte
    histograms are charged there). *)

val set_tracer : t -> Imdb_obs.Tracer.t -> unit
(** Point the log at an engine's tracer: [flush] records a "wal.flush"
    span (bytes/frames attrs) around the append+sync, and each drained
    group-commit batch a "wal.group_commit" instant — both nest under
    the commit span that triggered the flush. *)

val append : t -> Log_record.body -> int64
(** Buffer a record; returns its LSN. *)

val flush : ?lsn:int64 -> t -> unit
(** Make the log durable through [lsn] (default: everything buffered).
    Returns without touching the device when [lsn] is already durable;
    otherwise one append+sync covers the whole tail and acknowledges
    every registered group-commit waiter it made durable. *)

val atomically : t -> (unit -> 'a) -> 'a
(** Run [f] as one atomic group: no flush makes any of the records [f]
    appends durable until [f] returns, so a crash keeps all of them or
    none.  Nests; the outermost call defines the group.  A flush that
    needs a record inside the open group raises [Invalid_argument]. *)

val group_floor : t -> int64 option
(** First LSN of the open atomic group, if any.  The buffer pool does not
    evict a page whose LSN is at or past it. *)

val register_commit : t -> lsn:int64 -> on_durable:(unit -> unit) -> unit
(** Group commit: register a commit record's LSN and a durability
    acknowledgment.  [on_durable] fires synchronously if the record is
    already durable, otherwise from the flush that makes it so — never
    before the device sync.  Waiters dropped by [crash_volatile] are
    never fired. *)

val pending_commits : t -> int
(** Number of registered commit waiters not yet durable. *)

val next_lsn : t -> int64
(** End of log, including the unflushed tail. *)

val flushed_lsn : t -> int64

val iter_from : t -> from_lsn:int64 -> (int64 -> Log_record.body -> unit) -> unit
(** Iterate durable records from a frame boundary. *)

val read_at : t -> int64 -> Log_record.body
(** Read one record, durable or still buffered (rollback chains). *)

val crash_volatile : t -> unit
(** Crash simulation: drop the unflushed tail. *)

val close : t -> unit
