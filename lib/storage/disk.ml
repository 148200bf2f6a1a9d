(* Page-granularity storage devices.

   The engine talks to storage exclusively through this record of
   functions so that the same code runs against a real file, an in-memory
   simulated disk (deterministic benchmarks, crash tests), or a
   failure-injecting wrapper.  Reads and writes are whole pages.

   Durability model: [write_page] makes the page durable for the purposes
   of crash simulation (the in-memory device keeps a separate "platter"
   copy; the file device relies on [sync] for real durability).  A "crash"
   in tests is simply dropping every volatile structure (buffer pool, VTT)
   and reopening the engine over the same device. *)

module M = Imdb_obs.Metrics

type t = {
  page_size : int;
  read_page : int -> bytes;
      (** [read_page id] returns a fresh copy of the page's bytes.
          Raises [Page_missing] if the page was never written. *)
  write_page : int -> bytes -> unit;
  page_exists : int -> bool;
  page_count : unit -> int;  (** high-water mark + 1 over written page ids *)
  sync : unit -> unit;
  close : unit -> unit;
  metrics : M.t ref;
      (** a [ref] so wrappers built with [{ inner with ... }] share the
          cell: [set_metrics] reaches the inner device's closures too *)
}

let set_metrics t m = t.metrics := m

exception Page_missing of int
exception Io_failure of string

let check_size t b =
  if Bytes.length b <> t.page_size then
    invalid_arg
      (Printf.sprintf "Disk: page of %d bytes on device with page_size %d"
         (Bytes.length b) t.page_size)

(* ------------------------------------------------------------------ *)
(* In-memory device                                                    *)
(* ------------------------------------------------------------------ *)

let in_memory ?(metrics = M.null) ~page_size () =
  let platter : (int, bytes) Hashtbl.t = Hashtbl.create 256 in
  let hwm = ref 0 in
  let rec t =
    {
      page_size;
      read_page =
        (fun id ->
          M.incr !(t.metrics) M.disk_reads;
          match Hashtbl.find_opt platter id with
          | Some b -> Bytes.copy b
          | None -> raise (Page_missing id));
      write_page =
        (fun id b ->
          check_size t b;
          M.incr !(t.metrics) M.disk_writes;
          Hashtbl.replace platter id (Bytes.copy b);
          if id + 1 > !hwm then hwm := id + 1);
      page_exists = (fun id -> Hashtbl.mem platter id);
      page_count = (fun () -> !hwm);
      sync = (fun () -> ());
      close = (fun () -> ());
      metrics = ref metrics;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* File-backed device                                                  *)
(* ------------------------------------------------------------------ *)

let file ?(metrics = M.null) ~path ~page_size () =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let closed = ref false in
  let ensure_open () = if !closed then raise (Io_failure "disk closed") in
  let file_pages () =
    let len = (Unix.fstat fd).Unix.st_size in
    (len + page_size - 1) / page_size
  in
  let rec t =
    {
      page_size;
      read_page =
        (fun id ->
          ensure_open ();
          M.incr !(t.metrics) M.disk_reads;
          if id >= file_pages () then raise (Page_missing id);
          let b = Bytes.create page_size in
          ignore (Unix.lseek fd (id * page_size) Unix.SEEK_SET);
          let rec fill off =
            if off < page_size then begin
              let n = Unix.read fd b off (page_size - off) in
              if n = 0 then raise (Page_missing id);
              fill (off + n)
            end
          in
          fill 0;
          b);
      write_page =
        (fun id b ->
          ensure_open ();
          check_size t b;
          M.incr !(t.metrics) M.disk_writes;
          ignore (Unix.lseek fd (id * page_size) Unix.SEEK_SET);
          let rec drain off =
            if off < page_size then
              drain (off + Unix.write fd b off (page_size - off))
          in
          drain 0);
      page_exists = (fun id -> id < file_pages ());
      page_count = (fun () -> file_pages ());
      sync =
        (fun () ->
          ensure_open ();
          Unix.fsync fd);
      close =
        (fun () ->
          if not !closed then begin
            closed := true;
            Unix.close fd
          end);
      metrics = ref metrics;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

(* Operation-targeted triggers: the countdown decrements only on writes
   the target selects, so a plan can say "fail on the Nth history-page
   write" (crashing mid-time-split) or "fail on the next meta-page write"
   (crashing mid-checkpoint) without counting unrelated traffic. *)
type write_target =
  | Any_write
  | Writes_of_type of Page.page_type list
      (** writes of pages whose header carries one of these types — e.g.
          [P_history_compressed] crashes a time-split at the moment it
          persists the historical page *)
  | Writes_to_page of int  (** writes of one page id (0 = the meta page) *)
  | Writes_matching of (int -> bytes -> bool)
      (** arbitrary predicate over (page id, sealed image) *)

type failure_plan = {
  mutable writes_until_failure : int;
      (** -1 = never fail; 0 = next targeted write fails *)
  mutable tear_on_failure : bool;
      (** if set, the failing write persists only the first half of the
          page (a torn write) before raising *)
  mutable target : write_target;
      (** which writes the countdown counts *)
  mutable dead : bool;
      (** set when the plan fires: the device rejects every write,
          targeted or not, until the plan is lifted or re-armed *)
  mutable fired : int;
      (** failures injected so far (never reset); dead-device rejections
          after the fire do not count *)
}

let never_fail () =
  { writes_until_failure = -1; tear_on_failure = false; target = Any_write;
    dead = false; fired = 0 }

let arm plan ?(tear = false) ?(target = Any_write) ~after () =
  plan.writes_until_failure <- after;
  plan.tear_on_failure <- tear;
  plan.target <- target;
  plan.dead <- false

let lift plan =
  plan.writes_until_failure <- -1;
  plan.tear_on_failure <- false;
  plan.target <- Any_write;
  plan.dead <- false

(* Does this write count toward the plan's countdown?  A malformed image
   (too short for a header, unknown type byte) never matches a typed
   target — the trigger is for well-formed engine pages. *)
let target_matches plan id b =
  match plan.target with
  | Any_write -> true
  | Writes_to_page pid -> id = pid
  | Writes_of_type tys -> (
      match Page.page_type b with
      | ty -> List.mem ty tys
      | exception _ -> false)
  | Writes_matching f -> ( try f id b with _ -> false)

(* Wrap [inner] so that the [plan] can trigger a failure mid-run.  Used by
   recovery tests and the torture harness to crash the engine at an exact
   write.  Once fired, every subsequent write fails too (the device is
   dead) until the plan is lifted. *)
let failing ~plan inner =
  {
    inner with
    write_page =
      (fun id b ->
        if plan.dead then raise (Io_failure "device dead after injected failure");
        if plan.writes_until_failure >= 0 && target_matches plan id b then begin
          if plan.writes_until_failure = 0 then begin
            plan.fired <- plan.fired + 1;
            (* the device is now dead for every write, targeted or not *)
            plan.dead <- true;
            plan.writes_until_failure <- -1;
            if plan.tear_on_failure then begin
              (* Persist a torn page: first half new, second half stale
                 (zero when the page never existed — deterministic, so
                 torture runs replay bit-identically). *)
              let torn =
                try inner.read_page id
                with Page_missing _ -> Bytes.make inner.page_size '\000'
              in
              Bytes.blit b 0 torn 0 (inner.page_size / 2);
              inner.write_page id torn
            end;
            raise (Io_failure "injected write failure")
          end;
          plan.writes_until_failure <- plan.writes_until_failure - 1
        end;
        inner.write_page id b);
  }
