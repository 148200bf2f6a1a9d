(* One way to block (see the interface).  The fast paths read the
   domain-local scheduler slot and nothing more. *)

type scheduler = {
  self : unit -> int;
  now_us : unit -> int;
  block : deadline_us:int option -> (unit -> bool) -> unit;
}

let installed : scheduler option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let install s = Domain.DLS.set installed s

let self_of = function None -> (Domain.self () :> int) + 1 | Some s -> s.self ()
let self () = self_of (Domain.DLS.get installed)

let now_us () =
  match Domain.DLS.get installed with
  | None -> int_of_float (Unix.gettimeofday () *. 1e6)
  | Some s -> s.now_us ()

type lock = { mu : Mutex.t; owner : int Atomic.t; mutable depth : int }

let lock () = { mu = Mutex.create (); owner = Atomic.make 0; depth = 0 }
let holder l = Atomic.get l.owner

(* Under a scheduler every session shares one system thread, so the
   mutex cannot tell them apart: a session that finds it taken waits for
   the owner to let go, then takes it uncontended. *)
let take l sch me =
  (match sch with
  | None -> Mutex.lock l.mu
  | Some s ->
      if not (Mutex.try_lock l.mu) then begin
        s.block ~deadline_us:None (fun () -> Atomic.get l.owner = 0);
        Mutex.lock l.mu
      end);
  Atomic.set l.owner me

let acquire l =
  let sch = Domain.DLS.get installed in
  let me = self_of sch in
  if Atomic.get l.owner = me then l.depth <- l.depth + 1
  else begin
    take l sch me;
    l.depth <- 1
  end

let drop l =
  Atomic.set l.owner 0;
  Mutex.unlock l.mu

let release l =
  l.depth <- l.depth - 1;
  if l.depth = 0 then drop l

let suspend l =
  let me = self () and depth = l.depth in
  if Atomic.get l.owner <> me then ignore
  else begin
    drop l;
    fun () ->
      take l (Domain.DLS.get installed) me;
      l.depth <- depth
  end

type spot = { m : Mutex.t; c : Condition.t }

let spot () = { m = Mutex.create (); c = Condition.create () }
let protect s f = Mutex.protect s.m f
let wake s = Condition.broadcast s.c

(* [Condition] has no timed wait, so while any deadline waiter is parked
   one process-wide ticker thread wakes them all every 2 ms to re-check.
   It exits as soon as none is parked — a domain cannot terminate while
   a thread it started runs — and a parker registers and ensures a
   ticker in one [ticker_mu] section, which the ticker re-checks under
   before it retires. *)
let ticker_mu = Mutex.create ()
let timed : Condition.t list ref = ref []
let ticker_running = ref false
let tickers = Atomic.make 0
let tickers_started () = Atomic.get tickers

let rec ticker_loop () =
  Thread.delay 0.002;
  let conds =
    Mutex.protect ticker_mu (fun () ->
        if !timed = [] then ticker_running := false;
        !timed)
  in
  if conds <> [] then begin
    List.iter Condition.broadcast conds;
    ticker_loop ()
  end

let wait ?deadline_us s ready =
  match (Domain.DLS.get installed, deadline_us) with
  | Some sch, _ ->
      (* the other sessions take [s] themselves while this one is parked *)
      Mutex.unlock s.m;
      Fun.protect ~finally:(fun () -> Mutex.lock s.m) (fun () -> sch.block ~deadline_us ready)
  | None, None ->
      while not (ready ()) do
        Condition.wait s.c s.m
      done
  | None, Some deadline ->
      Mutex.protect ticker_mu (fun () ->
          timed := s.c :: !timed;
          if not !ticker_running then begin
            ticker_running := true;
            Atomic.incr tickers;
            ignore (Thread.create ticker_loop ())
          end);
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect ticker_mu (fun () ->
              let rec remove_one = function
                | [] -> []
                | c :: rest -> if c == s.c then rest else c :: remove_one rest
              in
              timed := remove_one !timed))
        (fun () ->
          while (not (ready ())) && now_us () < deadline do
            Condition.wait s.c s.m
          done)
