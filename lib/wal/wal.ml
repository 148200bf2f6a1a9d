(* The write-ahead log.

   An append-only stream of checksummed frames over a log device:

   {v  frame := u32 payload_length | u32 crc32(payload) | payload  v}

   The LSN of a record is the byte offset of its frame in the stream; the
   LSN order is the total order of all logged actions.  The WAL object
   buffers appended frames in memory; [flush] makes the prefix up to a
   given LSN durable.  After a crash, [open_device] scans the durable
   stream, stops at the first incomplete or corrupt frame (a torn tail)
   and truncates it away.

   The buffer-pool's WAL-before-data rule calls [flush ~lsn:(page lsn)]
   before any page write, and commit calls [flush] at the commit record.

   Concurrency: one volatile tail, under [tail_mu].  An append reserves
   its LSN and queues its frame in the same critical section, so the
   tail always holds every frame from [durable_end] up to [next], with
   no gaps, and a flush leader's batch is simply the whole tail (up to
   an open atomic group).  Device access is
   serialized by [flush_mu]; concurrent committers whose record a
   leader's sync will cover wait for the durable horizon instead of
   syncing again (group commit).  A commit is acknowledged by the return
   of its own [flush ~lsn]; the log only counts the Commit frames in the
   tail, which gives each committer its batch position and each sync its
   batch size.  Every engine append already runs under
   the session gate, so one mutex costs nothing there; it keeps the log
   safe for any caller on any domain without relying on the gate.

   Atomic groups: a structure modification logs several redo-only
   records that are consistent only together.  While [atomically] holds
   a group open, a flush stops at its first record, so a crash keeps all
   of the group or none; the buffer pool keeps its pages in memory. *)

open Imdb_util
module M = Imdb_obs.Metrics

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
    (* manually managed growable store: [read] must be O(len), not a copy
       of the whole log (recovery reads every frame individually) *)
    let store = ref (Bytes.create 4096) in
    let used = ref 0 in
    let ensure extra =
      if !used + extra > Bytes.length !store then begin
        let cap = ref (Bytes.length !store) in
        while !used + extra > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit !store 0 bigger 0 !used;
        store := bigger
      end
    in
    {
      size = (fun () -> !used);
      append =
        (fun b ->
          ensure (Bytes.length b);
          Bytes.blit b 0 !store !used (Bytes.length b);
          used := !used + Bytes.length b);
      read =
        (fun ~pos ~len ->
          if pos < 0 || len < 0 || pos + len > !used then
            failwith "Wal.Device.in_memory: read out of range";
          Bytes.sub !store pos len);
      truncate = (fun n -> if n < !used then used := n);
      sync = (fun () -> ());
      close = (fun () -> ());
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
  tail_mu : Mutex.t;
      (* guards [next], [durable_end], [tail], [tail_commits] and
         [volatile]: a volatile-frame lookup under it is atomic with
         respect to appends and the durable horizon *)
  mutable next : int64; (* next LSN: end of log including the volatile tail *)
  mutable durable_end : int64; (* bytes durable on the device *)
  mutable tail : (int64 * bytes) list;
      (* every frame from [durable_end] up to [next], newest first *)
  mutable tail_commits : int; (* Commit frames in [tail] *)
  volatile : (int64, bytes) Hashtbl.t; (* the same frames, by LSN *)
  flush_mu : Mutex.t;
      (* serializes device append+sync (and durable reads against them);
         concurrent committers queue here and find their records already
         durable — the group-commit fsync batch *)
  flush_owner : int Atomic.t;
      (* domain id + 1 of the [flush_mu] holder (0 = none): recovery's
         redo iterates the log and reads it again from inside the
         callback, so device access must be reentrant per domain *)
  mutable flush_active : bool;
      (* a leader's append+sync is in flight (guarded by [tail_mu]).
         Followers whose LSN the leader will cover wait on [flush_cv]
         for [durable_end] to move instead of queueing on [flush_mu]: a
         hot leader re-syncing in a loop barges an OS mutex queue and
         can starve parked waiters for many sync periods, but it cannot
         stop them from observing the durable horizon. *)
  flush_cv : Condition.t;
  mutable group_floor : int64 option;
      (* first LSN of the open atomic group: no flush passes it *)
  mutable group_depth : int; (* nesting of [atomically]; both under [tail_mu] *)
  metrics : M.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

let set_tracer t tr = t.tracer <- tr

let frame_of payload =
  let len = Bytes.length payload in
  let b = Bytes.create (frame_header + len) in
  Codec.set_u32 b 0 len;
  Codec.set_u32 b 4 (Checksum.bytes_int payload);
  Codec.set_bytes b frame_header payload;
  b

(* Scan the durable stream from offset 0, returning the offset of the
   first invalid frame (= valid end of log). *)
let scan_valid_end (d : Device.t) =
  let total = d.size () in
  let rec go pos =
    if pos + frame_header > total then pos
    else
      let hdr = d.read ~pos ~len:frame_header in
      let len = Codec.get_u32 hdr 0 in
      let crc = Codec.get_u32 hdr 4 in
      if len = 0 || pos + frame_header + len > total then pos
      else
        let payload = d.read ~pos:(pos + frame_header) ~len in
        if Checksum.bytes_int payload <> crc then pos
        else go (pos + frame_header + len)
  in
  go 0

let open_device ?(metrics = M.null) device =
  let valid = scan_valid_end device in
  if valid < device.Device.size () then device.Device.truncate valid;
  {
    device;
    tail_mu = Mutex.create ();
    next = Int64.of_int valid;
    durable_end = Int64.of_int valid;
    tail = [];
    tail_commits = 0;
    volatile = Hashtbl.create 64;
    flush_mu = Mutex.create ();
    flush_owner = Atomic.make 0;
    flush_active = false;
    flush_cv = Condition.create ();
    group_floor = None;
    group_depth = 0;
    metrics;
    tracer = Imdb_obs.Tracer.null;
  }

let next_lsn t = Mutex.protect t.tail_mu (fun () -> t.next)

let with_flush_mu t f =
  let me = (Domain.self () :> int) + 1 in
  if Atomic.get t.flush_owner = me then f ()
  else begin
    Mutex.lock t.flush_mu;
    Atomic.set t.flush_owner me;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.flush_owner 0;
        Mutex.unlock t.flush_mu)
      f
  end

let durable t = Mutex.protect t.tail_mu (fun () -> t.durable_end)

let group_floor t = Mutex.protect t.tail_mu (fun () -> t.group_floor)

let atomically t f =
  Mutex.protect t.tail_mu (fun () ->
      if t.group_depth = 0 then t.group_floor <- Some t.next;
      t.group_depth <- t.group_depth + 1);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.tail_mu (fun () ->
          t.group_depth <- t.group_depth - 1;
          if t.group_depth = 0 then t.group_floor <- None))
    f

let flushed_lsn t = durable t

(* Queue one frame; returns its LSN and the number of Commit frames in
   the tail right after it. *)
let push t body =
  let payload = Log_record.encode body in
  let frame = frame_of payload in
  let commit = match body with Log_record.Commit _ -> 1 | _ -> 0 in
  let placed =
    Mutex.protect t.tail_mu (fun () ->
        let lsn = t.next in
        t.next <- Int64.add lsn (Int64.of_int (Bytes.length frame));
        t.tail <- (lsn, frame) :: t.tail;
        t.tail_commits <- t.tail_commits + commit;
        Hashtbl.replace t.volatile lsn frame;
        (lsn, t.tail_commits))
  in
  M.incr t.metrics M.log_appends;
  M.incr ~by:(Bytes.length frame) t.metrics M.log_bytes;
  M.observe t.metrics M.h_log_record_bytes (Bytes.length frame);
  placed

let append t body = fst (push t body)
let append_commit t ~tid ~ts = push t (Log_record.Commit { tid; ts })

(* One leader's append+sync of the whole tail, or of the part before an
   open atomic group.  Caller has claimed leadership ([flush_active]
   set); runs under [flush_mu] to serialize device access against
   readers and other (reentrant) flushers.  The batch stays in [tail]
   and [volatile] until the sync returns, so a frame is findable until
   it is durable and a failed write leaves the tail intact for the next
   leader.  The sync's commit batch is every Commit frame in the tail: a
   Commit record is never appended inside an atomic group (both run
   under the session gate, and no group spans a commit), so none lies
   past the floor. *)
let flush_as_leader t needed =
  with_flush_mu t (fun () ->
      (* the flush that held leadership before us may have covered our
         record already *)
      let frames, new_end, commits =
        Mutex.protect t.tail_mu (fun () ->
            if Int64.compare needed t.durable_end < 0 then ([], t.next, 0)
            else
              let frames, new_end =
                match t.group_floor with
                | None -> (List.rev t.tail, t.next)
                | Some floor ->
                    ( List.filter (fun (lsn, _) -> Int64.compare lsn floor < 0) (List.rev t.tail),
                      floor )
              in
              (frames, new_end, t.tail_commits))
      in
      if frames <> [] then begin
        Imdb_obs.Tracer.with_span t.tracer "wal.flush" (fun sp ->
            let bytes =
              List.fold_left (fun acc (_, f) -> acc + Bytes.length f) 0 frames
            in
            List.iter (fun (_, frame) -> t.device.Device.append frame) frames;
            t.device.Device.sync ();
            Mutex.protect t.tail_mu (fun () ->
                List.iter (fun (lsn, _) -> Hashtbl.remove t.volatile lsn) frames;
                t.tail <-
                  List.filter (fun (lsn, _) -> Int64.compare lsn new_end >= 0) t.tail;
                t.tail_commits <- t.tail_commits - commits;
                t.durable_end <- new_end);
            M.incr t.metrics M.log_flushes;
            M.observe t.metrics M.h_log_flush_bytes bytes;
            Imdb_obs.Tracer.add_attr sp "bytes" (string_of_int bytes);
            Imdb_obs.Tracer.add_attr sp "frames" (string_of_int (List.length frames)));
        if commits > 0 then begin
          M.observe t.metrics M.h_group_commit_batch commits;
          Imdb_obs.Tracer.instant t.tracer "wal.group_commit"
            ~attrs:[ ("batch", string_of_int commits) ]
        end
      end)

(* Make everything up to and including the record at [lsn] durable.  A
   record at a given LSN is durable iff [lsn < durable_end] (both are
   frame boundaries), so an already-durable request returns without
   touching the device.  Otherwise one session at a time claims
   leadership and pushes the buffered frames out in a single
   append+sync; concurrent flushers whose LSN that sync covers are
   {e followers} — they wait on [flush_cv] for the durable horizon to
   pass their record and never touch the device or [flush_mu] at all.
   (Queueing followers on [flush_mu] instead invites starvation: an OS
   mutex lets a hot leader that unlocks and immediately re-locks barge
   ahead of the parked waiters, so a committer could sit through many
   1-record syncs that each already covered it.)  A committer's return
   from [flush ~lsn:commit_lsn] is its durability acknowledgment. *)
let flush ?lsn t =
  let needed =
    match lsn with Some l -> l | None -> Int64.pred (next_lsn t)
  in
  let me = (Domain.self () :> int) + 1 in
  let rec run () =
    if Int64.compare needed (durable t) >= 0 then begin
      Mutex.lock t.tail_mu;
      if t.flush_active && Atomic.get t.flush_owner <> me then begin
        (* follower: a leader's sync is in flight and it is not our own
           (recovery re-enters flush from under [flush_mu]); park until
           the horizon moves or leadership frees, then re-decide *)
        while t.flush_active && Int64.compare needed t.durable_end >= 0 do
          Condition.wait t.flush_cv t.tail_mu
        done;
        Mutex.unlock t.tail_mu;
        run ()
      end
      else begin
        t.flush_active <- true;
        Mutex.unlock t.tail_mu;
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.tail_mu;
            t.flush_active <- false;
            Condition.broadcast t.flush_cv;
            Mutex.unlock t.tail_mu)
          (fun () -> flush_as_leader t needed)
      end
    end
  in
  run ();
  (match group_floor t with
  | Some floor when Int64.compare needed floor >= 0 ->
      invalid_arg "Wal.flush: record inside an open atomic group"
  | _ -> ())

(* Drop the volatile tail: crash simulation.  Commits still in it were
   never acknowledged — their transactions were never durable.  The end
   of log rewinds to the durable horizon, as a reopen would. *)
let crash_volatile t =
  Mutex.protect t.tail_mu (fun () ->
      t.next <- t.durable_end;
      t.group_floor <- None;
      t.group_depth <- 0;
      t.tail <- [];
      t.tail_commits <- 0;
      Hashtbl.reset t.volatile;
      Condition.broadcast t.flush_cv)

(* Iterate durable records from [from_lsn] (must be a frame boundary).
   Runs under [flush_mu] so device reads never interleave with a
   concurrent flush's appends (the file device shares one descriptor). *)
let iter_from t ~from_lsn f =
  with_flush_mu t (fun () ->
      let total = Int64.to_int (durable t) in
      let rec go pos =
        if pos + frame_header <= total then begin
          let hdr = t.device.Device.read ~pos ~len:frame_header in
          let len = Codec.get_u32 hdr 0 in
          let payload = t.device.Device.read ~pos:(pos + frame_header) ~len in
          f (Int64.of_int pos) (Log_record.decode payload);
          go (pos + frame_header + len)
        end
      in
      go (Int64.to_int from_lsn))

(* Read the single record at [lsn] (durable or volatile). *)
let read_at t lsn =
  match Mutex.protect t.tail_mu (fun () -> Hashtbl.find_opt t.volatile lsn) with
  | Some frame ->
      let len = Codec.get_u32 frame 0 in
      Log_record.decode (Bytes.sub frame frame_header len)
  | None ->
      with_flush_mu t (fun () ->
          if Int64.compare lsn (durable t) < 0 then begin
            let pos = Int64.to_int lsn in
            let hdr = t.device.Device.read ~pos ~len:frame_header in
            let len = Codec.get_u32 hdr 0 in
            Log_record.decode (t.device.Device.read ~pos:(pos + frame_header) ~len)
          end
          else failwith (Printf.sprintf "Wal.read_at: no record at lsn %Ld" lsn))

let close t =
  flush t;
  t.device.Device.close ()
