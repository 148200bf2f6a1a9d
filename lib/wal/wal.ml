(* The write-ahead log.

   An append-only stream of checksummed frames over a log device:

   {v  frame := u32 payload_length | u32 crc32(payload) | payload  v}

   The LSN of a record is the byte offset of its frame in the stream; the
   LSN order is the total order of all logged actions.  Appended frames
   collect in one contiguous volatile tail, byte for byte as they will
   lie on the device; [flush] makes the prefix up to a given LSN durable
   with one device append and one sync.

   Opening reads nothing: the first reader to reach the end of log
   (recovery's one pass) decides it.  Every device read goes through one
   verified frame reader.  A frame before the checkpoint the meta page
   named was synced before the meta page was written, so one that fails
   its CRC is corruption and raises [Corrupt_frame]; from that checkpoint
   on (anywhere, without one) the first bad frame is a torn tail and ends
   the log.  A flush cuts the device back to the end of log before it
   appends, and the first one after an open runs only once recovery has
   decided to open, so an open that fails leaves the log as it found it.

   The buffer-pool's WAL-before-data rule calls [flush ~lsn:(page lsn)]
   before any page write, and commit calls [flush] at the commit record.

   Concurrency: one volatile tail under [tail_mu].  An append reserves
   its LSN and encodes its frame into the tail in the same critical
   section — no per-record buffer, list cell or index entry — so the
   tail holds every frame from [durable_end] to [next] with no gaps, the
   frame at LSN [l] at offset [l - durable_end], and a flush leader's
   batch is simply the tail's prefix (up to an open atomic group), cut
   in one copy.  Device access is serialized by [flush_mu];
   committers whose record a leader's sync will cover wait for the
   durable horizon instead (group commit).  Both are [Park]s, so a
   fiber scheduler interleaves sessions here as it does at the gate.

   Atomic groups: a structure modification logs several redo-only
   records that are consistent only together.  While [atomically] holds
   a group open, a flush stops at its first record, so a crash keeps all
   of the group or none; the buffer pool keeps its pages in memory. *)

open Imdb_util
module M = Imdb_obs.Metrics

let h_group_commit_batch = M.histogram_of M.h_group_commit_batch
let h_log_flush_bytes = M.histogram_of M.h_log_flush_bytes
let h_log_record_bytes = M.histogram_of M.h_log_record_bytes
let log_appends = M.counter_of M.log_appends
let log_bytes = M.counter_of M.log_bytes
let log_flushes = M.counter_of M.log_flushes

let frame_header = 8

module Device = struct
  type t = {
    size : unit -> int; (* durable bytes *)
    append : bytes -> unit; (* append durable bytes at the end *)
    read : pos:int -> len:int -> bytes;
    truncate : int -> unit; (* keep [0, n) *)
    sync : unit -> unit;
    close : unit -> unit;
  }

  let in_memory () =
    (* a growable store: [read] copies only [len] bytes, not the whole
       log (recovery reads every frame individually) *)
    let store = ref (Bytes.create 4096) and used = ref 0 in
    {
      size = (fun () -> !used);
      append =
        (fun b ->
          let cap = Bytes.length !store and need = !used + Bytes.length b in
          if need > cap then store := Bytes.extend !store 0 (max need (2 * cap) - cap);
          Bytes.blit b 0 !store !used (Bytes.length b);
          used := need);
      read =
        (fun ~pos ~len ->
          if pos < 0 || len < 0 || pos + len > !used then
            failwith "Wal.Device.in_memory: read out of range";
          Bytes.sub !store pos len);
      truncate = (fun n -> if n < !used then used := n);
      sync = ignore;
      close = ignore;
    }

  let file ~path =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let size () = (Unix.fstat fd).Unix.st_size in
    {
      size;
      append =
        (fun b ->
          ignore (Unix.lseek fd 0 Unix.SEEK_END);
          let rec drain off =
            if off < Bytes.length b then
              drain (off + Unix.write fd b off (Bytes.length b - off))
          in
          drain 0);
      read =
        (fun ~pos ~len ->
          let b = Bytes.create len in
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let rec fill off =
            if off < len then begin
              let n = Unix.read fd b off (len - off) in
              if n = 0 then failwith "Wal.Device.file: short read";
              fill (off + n)
            end
          in
          fill 0;
          b);
      truncate = (fun n -> Unix.ftruncate fd n);
      sync = (fun () -> Unix.fsync fd);
      close = (fun () -> Unix.close fd);
    }
end

type t = {
  device : Device.t;
  tail_mu : Park.spot;
      (* guards the mutable fields below ([tracer] aside): a volatile-
         frame lookup under it is atomic with appends and the horizon.
         [durable_end] and [unverified_from] change under [flush_mu] too. *)
  mutable next : int; (* next LSN: end of log including the volatile tail *)
  mutable durable_end : int; (* bytes durable on the device *)
  mutable unverified_from : int;
      (* the LSN from which the first frame that fails its CRC is a torn
         tail, not corruption; [max_int] once a reader reached the end *)
  mutable tail : bytes;
      (* the volatile tail: every frame from [durable_end] up to [next],
         as it goes to the device; the frame at LSN [l] starts at offset
         [l - durable_end], and the bytes past [next - durable_end] are
         spare capacity *)
  mutable tail_commits : int; (* Commit frames in the tail *)
  scratch : Codec.Writer.t; (* the record being framed, under [tail_mu] *)
  flush_mu : Park.lock;
      (* serializes device append+sync and durable reads; reentrant, as
         recovery's redo reads the log again from inside its callback *)
  mutable flush_active : bool;
      (* a leader's append+sync is in flight.  Followers it will cover
         wait on [tail_mu] for [durable_end] to move, not on [flush_mu]:
         a leader re-syncing in a loop barges a mutex queue and can
         starve waiters for many syncs, but it cannot hide the horizon. *)
  mutable group_floor : int;
      (* first LSN of the open atomic group, [max_int] when none: no
         flush passes it *)
  mutable group_depth : int; (* nesting of [atomically]; both under [tail_mu] *)
  metrics : M.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

let set_tracer t tr = t.tracer <- tr

exception Corrupt_frame of int64

(* The one verified frame reader: the payload of the frame at [pos] if a
   whole frame lies below [limit] and its payload matches its CRC.  Every
   frame read from the device passes through here, so no payload is ever
   decoded unverified. *)
let read_frame (d : Device.t) ~limit pos =
  if pos + frame_header > limit then None
  else
    let hdr = d.read ~pos ~len:frame_header in
    let len = Codec.get_u32 hdr 0 in
    if len = 0 || pos + frame_header + len > limit then None
    else
      let payload = d.read ~pos:(pos + frame_header) ~len in
      if Checksum.bytes_int payload <> Codec.get_u32 hdr 4 then None else Some payload

let open_device ?(metrics = M.null) ?(checkpoint_lsn = 0L) device =
  let size = device.Device.size () in
  {
    device;
    tail_mu = Park.spot ();
    next = size;
    durable_end = size;
    unverified_from = (if size = 0 then max_int else Int64.to_int checkpoint_lsn);
    tail = Bytes.create 4096;
    tail_commits = 0;
    scratch = Codec.Writer.create ~size:256 ();
    flush_mu = Park.lock ();
    flush_active = false;
    group_floor = max_int;
    group_depth = 0;
    metrics;
    tracer = Imdb_obs.Tracer.null;
  }

let next_lsn t = Int64.of_int (Park.protect t.tail_mu (fun () -> t.next))

let with_flush_mu t f =
  Park.acquire t.flush_mu;
  Fun.protect ~finally:(fun () -> Park.release t.flush_mu) f

let flushed_lsn t = Int64.of_int (Park.protect t.tail_mu (fun () -> t.durable_end))

let group_floor t =
  let floor = Park.protect t.tail_mu (fun () -> t.group_floor) in
  if floor = max_int then None else Some (Int64.of_int floor)

let atomically t f =
  Park.protect t.tail_mu (fun () ->
      if t.group_depth = 0 then t.group_floor <- t.next;
      t.group_depth <- t.group_depth + 1);
  Fun.protect
    ~finally:(fun () ->
      Park.protect t.tail_mu (fun () ->
          t.group_depth <- t.group_depth - 1;
          if t.group_depth = 0 then t.group_floor <- max_int))
    f

(* Frame [body] at the end of the tail; returns its LSN.  Caller holds
   [tail_mu], so reserving the LSN and writing the frame are one step
   and the tail has no gaps.  The record is encoded into the scratch
   writer and copied once into the tail, where its header and CRC are
   written in place. *)
let place t body =
  if t.unverified_from < max_int then
    invalid_arg "Wal.append: the log has not been read to its end since the open";
  let w = t.scratch in
  Codec.Writer.clear w;
  Log_record.encode_into w body;
  let len = Codec.Writer.length w in
  let lsn = t.next in
  let off = lsn - t.durable_end in
  let need = off + frame_header + len in
  if need > Bytes.length t.tail then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.tail)) in
    Bytes.blit t.tail 0 bigger 0 off;
    t.tail <- bigger
  end;
  Codec.Writer.blit w t.tail (off + frame_header);
  Codec.set_u32 t.tail off len;
  Codec.set_u32 t.tail (off + 4) (Checksum.range t.tail ~pos:(off + frame_header) ~len);
  t.next <- lsn + frame_header + len;
  M.incr t.metrics log_appends;
  M.add t.metrics log_bytes (frame_header + len);
  M.observe t.metrics h_log_record_bytes (frame_header + len);
  lsn

let append t body = Int64.of_int (Park.protect t.tail_mu (fun () -> place t body))

(* A Commit frame also joins the tail's commit batch: its position is
   the number of Commit frames in the tail right after it. *)
let append_commit t ~tid ~ts ~wrote_versions =
  Park.protect t.tail_mu (fun () ->
      let lsn = place t (Log_record.Commit { tid; ts; wrote_versions }) in
      t.tail_commits <- t.tail_commits + 1;
      (Int64.of_int lsn, t.tail_commits))

(* Frames in a batch cut from the tail (the flush span's attribute). *)
let frames_in batch =
  let rec go off n =
    if off >= Bytes.length batch then n
    else go (off + frame_header + Codec.get_u32 batch off) (n + 1)
  in
  go 0 0

(* One leader's append+sync of the tail, or of its part before an open
   atomic group.  Caller has claimed leadership ([flush_active] set);
   runs under [flush_mu] to serialize device access against readers and
   other (reentrant) flushers.  The batch is the tail's prefix, copied
   once: appenders keep filling the tail while the device works.  Only
   after the sync returns does the prefix leave the tail (the rest moves
   to offset 0 as [durable_end] advances), so a frame is readable until
   it is durable and a failed write leaves the tail intact for the next
   leader.  The sync's commit batch is every Commit frame in the tail: a
   Commit record is never appended inside an atomic group (both run
   under the session gate, and no group spans a commit), so none lies
   past the floor. *)
let flush_as_leader t needed =
  with_flush_mu t (fun () ->
      (* the flush that held leadership before us may have covered our
         record already *)
      let batch, commits, old_end =
        Park.protect t.tail_mu (fun () ->
            if needed < t.durable_end then (Bytes.empty, 0, t.durable_end)
            else
              ( Bytes.sub t.tail 0 (min t.next t.group_floor - t.durable_end),
                t.tail_commits,
                t.durable_end ))
      in
      let bytes = Bytes.length batch in
      if bytes > 0 then begin
        Imdb_obs.Tracer.with_span t.tracer "wal.flush" (fun sp ->
            (* cut off what lies past the durable log (the torn tail an
               open ended the log before, or a failed append's part); the
               sync below covers the cut too *)
            if t.device.Device.size () > old_end then t.device.Device.truncate old_end;
            t.device.Device.append batch;
            t.device.Device.sync ();
            Park.protect t.tail_mu (fun () ->
                let rest = t.next - old_end - bytes in
                if rest > 0 then Bytes.blit t.tail bytes t.tail 0 rest;
                t.tail_commits <- t.tail_commits - commits;
                t.durable_end <- old_end + bytes);
            M.incr t.metrics log_flushes;
            M.observe t.metrics h_log_flush_bytes bytes;
            Imdb_obs.Tracer.add_attr sp "bytes" string_of_int bytes;
            Imdb_obs.Tracer.add_attr sp "frames" (fun b -> string_of_int (frames_in b)) batch);
        if commits > 0 then begin
          M.observe t.metrics h_group_commit_batch commits;
          Imdb_obs.Tracer.instant t.tracer "wal.group_commit"
            ~attrs:(fun () -> [ ("batch", string_of_int commits) ])
        end
      end)

(* Make everything up to and including the record at [lsn] durable.  A
   record is durable iff [lsn < durable_end] (both are frame
   boundaries), so an already-durable request touches nothing.
   Otherwise one session at a time claims leadership and pushes the
   buffered frames out in one append+sync; flushers whose LSN that sync
   covers are {e followers}, waiting for the horizon without touching
   the device or [flush_mu] (see [flush_active]).  A committer's return
   from [flush ~lsn:commit_lsn] is its durability acknowledgment. *)
let flush ?lsn t =
  let needed =
    match lsn with
    | Some l -> Int64.to_int l
    | None -> Park.protect t.tail_mu (fun () -> t.next) - 1
  in
  let rec run () =
    if needed >= Park.protect t.tail_mu (fun () -> t.durable_end) then
      if
        Park.protect t.tail_mu (fun () ->
            (* follower, unless the sync in flight is our own (recovery
               re-enters flush from under [flush_mu]); re-decide once the
               horizon moves or leadership frees *)
            let follow = t.flush_active && Park.holder t.flush_mu <> Park.self () in
            if follow then
              Park.wait t.tail_mu (fun () -> (not t.flush_active) || needed < t.durable_end)
            else t.flush_active <- true;
            follow)
      then run ()
      else
        Fun.protect
          ~finally:(fun () ->
            Park.protect t.tail_mu (fun () ->
                t.flush_active <- false;
                Park.wake t.tail_mu))
          (fun () -> flush_as_leader t needed)
  in
  run ();
  if needed >= Park.protect t.tail_mu (fun () -> t.group_floor) then
    invalid_arg "Wal.flush: record inside an open atomic group"

(* Drop the volatile tail: crash simulation.  Commits still in it were
   never acknowledged — their transactions were never durable.  The end
   of log rewinds to the durable horizon, as a reopen would. *)
let crash_volatile t =
  Park.protect t.tail_mu (fun () ->
      t.next <- t.durable_end;
      t.group_floor <- max_int;
      t.group_depth <- 0;
      t.tail_commits <- 0;
      Park.wake t.tail_mu)

(* Iterate durable records from [from_lsn] (must be a frame boundary).
   Runs under [flush_mu] so device reads never interleave with a
   concurrent flush's appends (the file device shares one descriptor).
   A frame that fails its CRC at or past [unverified_from] is a torn tail
   that ends the log, from then on decided; anywhere else it is
   corruption and raises [Corrupt_frame].  The end is read before each
   frame: [f] may itself read to the end and end the log (a torn-page
   rebuild inside recovery's pass). *)
let iter_from t ~from_lsn f =
  with_flush_mu t (fun () ->
      let rec go pos =
        (* both fields change only under [flush_mu], which we hold *)
        let total = t.durable_end in
        match if pos < total then read_frame t.device ~limit:total pos else None with
        | Some payload ->
            f (Int64.of_int pos) (Log_record.decode payload);
            go (pos + frame_header + Bytes.length payload)
        | None when pos >= total || pos >= t.unverified_from ->
            Park.protect t.tail_mu (fun () ->
                t.unverified_from <- max_int;
                if pos < total then begin
                  t.durable_end <- pos;
                  t.next <- pos
                end)
        | None -> raise (Corrupt_frame (Int64.of_int pos))
      in
      go (Int64.to_int from_lsn))

(* Read the single record at [lsn] (durable or volatile).  A volatile
   frame is copied out under [tail_mu]: a flush may shift the tail as
   soon as it is released. *)
let read_at t lsn =
  let pos = Int64.to_int lsn in
  let volatile =
    Park.protect t.tail_mu (fun () ->
        if pos < t.durable_end || pos >= t.next then None
        else
          let off = pos - t.durable_end in
          Some (Bytes.sub t.tail (off + frame_header) (Codec.get_u32 t.tail off)))
  in
  match volatile with
  | Some payload -> Log_record.decode payload
  | None ->
      with_flush_mu t (fun () ->
          match read_frame t.device ~limit:t.durable_end pos with
          | Some payload -> Log_record.decode payload
          | None -> raise (Corrupt_frame lsn))

let close t =
  flush t;
  t.device.Device.close ()
