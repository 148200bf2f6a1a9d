(** The write-ahead log: an append-only stream of checksummed frames.

    The LSN of a record is the byte offset of its frame; LSN order is the
    total order of all logged actions.  Appends buffer in memory; [flush]
    makes the prefix durable (the buffer pool calls it before any page
    write — WAL before data — and commit calls it at the commit record).
    Opening reads nothing: the first reader to reach the end of log (after
    a crash, recovery's one pass) ends it at a torn tail, and the first
    flush after that cuts the tail off the device.  Every frame read is
    checked against its CRC.

    Safe to share across sessions: an append reserves its LSN and queues
    its frame on the one volatile tail, device access is serialized
    separately, and concurrent commits batch into one sync (group
    commit); every wait goes through {!Imdb_util.Park}.  A commit record
    is durable once [flush ~lsn] at its LSN returns. *)

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

exception Corrupt_frame of int64
(** A durable frame, at this LSN, failed its CRC when read where the log
    cannot be torn: before the checkpoint named at open, or below an end
    of log a reader has already reached. *)

val open_device : ?metrics:Imdb_obs.Metrics.t -> ?checkpoint_lsn:int64 -> Device.t -> t
(** Open without reading.  Until {!iter_from} reaches the end of log, the
    end is the device's end, and from [checkpoint_lsn] (default 0; the
    LSN of a checkpoint record durable when the meta page named it) the
    first frame that fails its CRC ends the log instead of raising
    {!Corrupt_frame}.  A flush truncates the device to the end of log. *)

val set_tracer : t -> Imdb_obs.Tracer.t -> unit
(** Point the log at an engine's tracer: [flush] records a "wal.flush"
    span (bytes/frames attrs) around the append+sync, and a sync that
    covers Commit records a "wal.group_commit" instant (batch attr) —
    both nest under the commit span that triggered the flush. *)

val append : t -> Log_record.body -> int64
(** Buffer a record; returns its LSN.
    @raise Invalid_argument on a non-empty log no reader has read to its
    end since the open. *)

val append_commit :
  t -> tid:Imdb_clock.Tid.t -> ts:Imdb_clock.Timestamp.t -> wrote_versions:bool -> int64 * int
(** Buffer a Commit record; returns its LSN and its batch position: the
    number of Commit records in the volatile tail right after it (1 =
    its own flush will pay the sync, k = riding a batch of k so far). *)

val flush : ?lsn:int64 -> t -> unit
(** Make the log durable through [lsn] (default: everything buffered).
    Returns without touching the device when [lsn] is already durable;
    otherwise one append+sync covers the whole tail.  Return is the
    durability acknowledgment: every record through [lsn] is on the
    device.  The sync observes [txn.group_commit_batch] once, with the
    number of Commit records it covered. *)

val atomically : t -> (unit -> 'a) -> 'a
(** Run [f] as one atomic group: no flush makes any of the records [f]
    appends durable until [f] returns, so a crash keeps all of them or
    none.  Nests; the outermost call defines the group.  A flush that
    needs a record inside the open group raises [Invalid_argument]. *)

val group_floor : t -> int64 option
(** First LSN of the open atomic group, if any.  The buffer pool does not
    evict a page whose LSN is at or past it. *)

val next_lsn : t -> int64
(** End of log, including the unflushed tail. *)

val flushed_lsn : t -> int64

val iter_from : t -> from_lsn:int64 -> (int64 -> Log_record.body -> unit) -> unit
(** Iterate durable records from a frame boundary to the end of log,
    ending the log at a torn tail (see {!open_device}).
    @raise Corrupt_frame at a frame that fails its CRC elsewhere. *)

val read_at : t -> int64 -> Log_record.body
(** Read one record, durable or still buffered (rollback chains).
    @raise Corrupt_frame if no whole frame that passes its CRC is there. *)

val crash_volatile : t -> unit
(** Crash simulation: drop the unflushed tail; the commits in it are
    never acknowledged. *)

val close : t -> unit
