(* Timed wrappers around the engine's two device interfaces.

   Every database the benchmark opens sits on these wrappers (passed to
   [Db.open_devices]), so storage and log traffic is counted and timed
   from outside the engine.  In a traced run each page read/write and
   log append/sync also records a span on the open database's tracer;
   the tracer's per-domain stack nests it under whatever engine span is
   open at the time. *)

module T = Imdb_obs.Tracer
module Disk = Imdb_storage.Disk
module Dev = Imdb_wal.Wal.Device

type counts = {
  mutable reads : int;
  mutable read_us : float;
  mutable writes : int;
  mutable write_us : float;
  mutable appends : int;
  mutable append_bytes : int;
  mutable syncs : int;
  mutable sync_us : float;
  mutable log_read_bytes : int;
}

let zero () =
  {
    reads = 0;
    read_us = 0.;
    writes = 0;
    write_us = 0.;
    appends = 0;
    append_bytes = 0;
    syncs = 0;
    sync_us = 0.;
    log_read_bytes = 0;
  }

type t = {
  mu : Mutex.t;  (* sessions on several domains share one probe *)
  c : counts;
  touched : (int, unit) Hashtbl.t;  (* distinct page ids read or written *)
  mutable tracer : T.t;  (* the open database's tracer *)
}

let create () =
  { mu = Mutex.create (); c = zero (); touched = Hashtbl.create 1024; tracer = T.null }

let locked p f =
  Mutex.lock p.mu;
  f p.c;
  Mutex.unlock p.mu

let snapshot p =
  Mutex.lock p.mu;
  let s = { p.c with reads = p.c.reads } in
  Mutex.unlock p.mu;
  s

let diff ~before a =
  {
    reads = a.reads - before.reads;
    read_us = a.read_us -. before.read_us;
    writes = a.writes - before.writes;
    write_us = a.write_us -. before.write_us;
    appends = a.appends - before.appends;
    append_bytes = a.append_bytes - before.append_bytes;
    syncs = a.syncs - before.syncs;
    sync_us = a.sync_us -. before.sync_us;
    log_read_bytes = a.log_read_bytes - before.log_read_bytes;
  }

let add acc d =
  acc.reads <- acc.reads + d.reads;
  acc.read_us <- acc.read_us +. d.read_us;
  acc.writes <- acc.writes + d.writes;
  acc.write_us <- acc.write_us +. d.write_us;
  acc.appends <- acc.appends + d.appends;
  acc.append_bytes <- acc.append_bytes + d.append_bytes;
  acc.syncs <- acc.syncs + d.syncs;
  acc.sync_us <- acc.sync_us +. d.sync_us;
  acc.log_read_bytes <- acc.log_read_bytes + d.log_read_bytes

let pages_touched p = Hashtbl.length p.touched

(* One device call: a span of kind [name] around [f], timed, then
   [charge]d to the counts — on failure too, as the engine's own counter
   is bumped before the device can fail. *)
let device_call p name f charge =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let us = (Unix.gettimeofday () -. t0) *. 1e6 in
      locked p (fun c -> charge c us))
    (fun () -> T.with_span p.tracer name (fun _ -> f ()))

let disk p (d : Disk.t) =
  {
    d with
    Disk.read_page =
      (fun id ->
        device_call p "storage.read"
          (fun () -> d.Disk.read_page id)
          (fun c us ->
            c.reads <- c.reads + 1;
            c.read_us <- c.read_us +. us;
            Hashtbl.replace p.touched id ()));
    write_page =
      (fun id b ->
        device_call p "storage.write"
          (fun () -> d.Disk.write_page id b)
          (fun c us ->
            c.writes <- c.writes + 1;
            c.write_us <- c.write_us +. us;
            Hashtbl.replace p.touched id ()));
  }

(* [sync_sleep_s] is the simulated cost of one log sync, slept by the
   syncing domain only, as a real fsync would block it. *)
let log ?(sync_sleep_s = 0.) p (d : Dev.t) =
  {
    d with
    Dev.append =
      (fun b ->
        device_call p "wal.append"
          (fun () -> d.Dev.append b)
          (fun c _ ->
            c.appends <- c.appends + 1;
            c.append_bytes <- c.append_bytes + Bytes.length b));
    sync =
      (fun () ->
        device_call p "wal.sync"
          (fun () ->
            if sync_sleep_s > 0. then Unix.sleepf sync_sleep_s;
            d.Dev.sync ())
          (fun c us ->
            c.syncs <- c.syncs + 1;
            c.sync_us <- c.sync_us +. us));
    read =
      (fun ~pos ~len ->
        let b = d.Dev.read ~pos ~len in
        locked p (fun c -> c.log_read_bytes <- c.log_read_bytes + len);
        b);
  }
