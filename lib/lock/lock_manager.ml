(* Lock manager.

   Strict two-phase locking for the serializable path (the paper's base
   engine supports "serializable, via fine grained locking"); snapshot
   isolation transactions bypass read locks entirely, which is the point
   of the versioning machinery.

   Resources are hierarchical: table locks in intention modes, record
   locks in S/X.  The lock table, the per-transaction held index and the
   wait-for graph all live under one mutex with one condition variable.
   Every engine call already runs under the session gate, so only parked
   waiters ever contend for it; the mutex keeps the manager safe to call
   from any domain without relying on the gate, and it makes every read
   of the three structures one consistent cut.

   There is one acquisition path.  A conflicting request records its
   wait-for edge, and a cycle through it raises [Deadlock] (the
   requester is the victim).  With a zero timeout the request then
   gives up at once ([Lock_timeout]) without parking; otherwise it parks
   on the condition variable until a release makes the grant possible,
   a later re-probe closes a cycle, or the deadline passes.  A
   lazily-spawned global ticker thread bounds the time between deadline
   checks, since the stdlib condition variable has no timed wait. *)

module M = Imdb_obs.Metrics

type resource = Table of int | Record of int * string (* table_id, key *)

let pp_resource ppf = function
  | Table id -> Fmt.pf ppf "table:%d" id
  | Record (id, k) -> Fmt.pf ppf "rec:%d/%S" id k

type mode = IS | IX | S | X

let pp_mode ppf m =
  Fmt.string ppf (match m with IS -> "IS" | IX -> "IX" | S -> "S" | X -> "X")

(* Standard multigranularity compatibility matrix. *)
let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX -> true
  | S, S -> true
  | _, X | X, _ -> false
  | IX, S | S, IX -> false

(* Mode strength for upgrades: the least upper bound. *)
let lub a b =
  match (a, b) with
  | X, _ | _, X -> X
  | S, IX | IX, S -> X (* SIX collapsed to X for simplicity *)
  | S, _ | _, S -> S
  | IX, _ | _, IX -> IX
  | IS, IS -> IS

type entry = { holders : (Imdb_clock.Tid.t, mode) Hashtbl.t }

(* One blocked request: what it wants and whom it waits for.  Keeping
   the resource/mode on the node (not just the edge set) lets the
   introspection dump say what each waiter is parked on. *)
type waiter = {
  w_res : resource;
  w_mode : mode;
  w_set : (Imdb_clock.Tid.t, unit) Hashtbl.t;
}

type t = {
  mu : Mutex.t; (* guards everything below *)
  cond : Condition.t; (* released locks broadcast here *)
  table : (resource, entry) Hashtbl.t;
  held : (Imdb_clock.Tid.t, (resource, unit) Hashtbl.t) Hashtbl.t;
      (* per-transaction held-resource sets (strict 2PL release index) *)
  waits : (Imdb_clock.Tid.t, waiter) Hashtbl.t;
      (* wait-for edges recorded on blocked requests, for deadlock
         detection and the introspection dump *)
  mutable metrics : M.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

let create () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 64;
    held = Hashtbl.create 64;
    waits = Hashtbl.create 16;
    metrics = M.null;
    tracer = Imdb_obs.Tracer.null;
  }

let set_metrics t m = t.metrics <- m
let set_tracer t tr = t.tracer <- tr

exception Deadlock of Imdb_clock.Tid.t
exception Lock_timeout of { tid : Imdb_clock.Tid.t; res : resource }

(* --- the wake-up ticker --------------------------------------------- *)

(* [Condition] has no timed wait, so a parked waiter cannot by itself
   notice a passed deadline.  One process-wide ticker thread broadcasts
   the condition variable of every parked waiter; woken waiters re-check
   their grant and their deadline.  A waiter's condvar is on the
   ticker's list only while it is parked, so a manager nobody waits on
   costs the ticker nothing.  Spawned on the first blocking wait in the
   process — engines that never block never pay for the thread. *)
let ticker_mu = Mutex.create ()
let parked : Condition.t list ref = ref [] (* one entry per parked waiter *)
let ticker_running = ref false

(* The ticker must EXIT the moment no one is parked: a domain cannot
   terminate while a thread it spawned is still running, so a
   forever-looping ticker created from a worker domain (whichever domain
   parks first) would make that domain unjoinable.  The liveness
   handshake: a parker joins [parked] and ensures a ticker exists in one
   [ticker_mu] section, and the ticker re-checks [parked] under the same
   mutex before retiring — a racing parker either finds it still running
   or finds [ticker_running] already false and spawns a fresh one. *)
let rec ticker_loop () =
  Thread.delay 0.002;
  Mutex.lock ticker_mu;
  let conds = !parked in
  if conds = [] then ticker_running := false;
  Mutex.unlock ticker_mu;
  if conds <> [] then begin
    List.iter Condition.broadcast conds;
    ticker_loop ()
  end

let rec remove_one c = function
  | [] -> []
  | x :: rest -> if x == c then rest else x :: remove_one c rest

(* Wait on [t.cond] (caller holds [t.mu]) with the ticker's wake-ups. *)
let park t =
  Mutex.protect ticker_mu (fun () ->
      parked := t.cond :: !parked;
      if not !ticker_running then begin
        ticker_running := true;
        ignore (Thread.create ticker_loop ())
      end);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect ticker_mu (fun () -> parked := remove_one t.cond !parked))
    (fun () -> Condition.wait t.cond t.mu)

(* --- held / waits indexes (hash-set backed; callers hold [mu]) ------- *)

let note_held t tid res =
  match Hashtbl.find_opt t.held tid with
  | Some set -> Hashtbl.replace set res ()
  | None ->
      let set = Hashtbl.create 8 in
      Hashtbl.replace set res ();
      Hashtbl.add t.held tid set

(* Extend the wait-for graph with edges tid->blockers unless doing so
   closes a cycle reachable from [tid]; returns [true] on a cycle (and
   leaves the graph unchanged).  Hash-set-backed BFS: visited set and
   successor sets are hashtables, so the check stays near-linear however
   many locks are held. *)
let note_wait_or_cycle t tid ~res ~mode blockers =
  let seen : (Imdb_clock.Tid.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let frontier = ref blockers in
  let cycle = ref false in
  while (not !cycle) && !frontier <> [] do
    match !frontier with
    | [] -> ()
    | x :: rest ->
        frontier := rest;
        if Imdb_clock.Tid.equal x tid then cycle := true
        else if not (Hashtbl.mem seen x) then begin
          Hashtbl.add seen x ();
          match Hashtbl.find_opt t.waits x with
          | Some w -> Hashtbl.iter (fun y () -> frontier := y :: !frontier) w.w_set
          | None -> ()
        end
  done;
  if not !cycle then begin
    let set = Hashtbl.create 4 in
    List.iter (fun b -> Hashtbl.replace set b ()) blockers;
    Hashtbl.replace t.waits tid { w_res = res; w_mode = mode; w_set = set }
  end;
  !cycle

(* --- grant logic (callers hold [mu]) -------------------------------- *)

let entry_of t res =
  match Hashtbl.find_opt t.table res with
  | Some e -> e
  | None ->
      let e = { holders = Hashtbl.create 4 } in
      Hashtbl.add t.table res e;
      e

(* The requested (upgrade-merged) mode and the incompatible holders. *)
let probe t tid res mode =
  let e = entry_of t res in
  let requested =
    match Hashtbl.find_opt e.holders tid with Some m -> lub m mode | None -> mode
  in
  let conflicts =
    Hashtbl.fold
      (fun other m acc ->
        if Imdb_clock.Tid.equal other tid then acc
        else if compatible requested m then acc
        else other :: acc)
      e.holders []
  in
  (e, requested, conflicts)

let grant t e tid res requested =
  Hashtbl.replace e.holders tid requested;
  note_held t tid res;
  Hashtbl.remove t.waits tid;
  M.incr t.metrics M.lock_acquires

(* --- acquisition -------------------------------------------------------- *)

(* Record [tid]'s wait-for edge, or refuse it when it closes a cycle. *)
let wait_or_deadlock t tid ~res ~mode blockers =
  if note_wait_or_cycle t tid ~res ~mode blockers then begin
    M.incr t.metrics M.lock_deadlocks;
    raise (Deadlock tid)
  end

(* Park until granted (caller holds [mu] and has recorded its edge).
   Returns the microseconds spent parked; a deadlock or a passed
   deadline raises instead, leaving no edge behind. *)
let park_until_granted t ~timeout_us tid res mode =
  let started = Unix.gettimeofday () in
  let deadline = started +. (float_of_int timeout_us /. 1e6) in
  let rec loop () =
    park t;
    let e, requested, conflicts = probe t tid res mode in
    match conflicts with
    | [] -> grant t e tid res requested
    | blockers ->
        wait_or_deadlock t tid ~res ~mode blockers;
        if Unix.gettimeofday () >= deadline then begin
          Hashtbl.remove t.waits tid;
          M.incr t.metrics M.lock_timeouts;
          raise (Lock_timeout { tid; res })
        end;
        loop ()
  in
  Imdb_obs.Tracer.with_span t.tracer "lock.wait"
    ~attrs:[ ("res", Fmt.str "%a" pp_resource res); ("mode", Fmt.str "%a" pp_mode mode) ]
  @@ fun _ ->
  let waited_us = ref 0 in
  Fun.protect loop ~finally:(fun () ->
      waited_us := int_of_float ((Unix.gettimeofday () -. started) *. 1e6);
      M.observe t.metrics M.h_lock_wait_us !waited_us);
  !waited_us

(* [on_park] runs once, under [mu], just before the requester first
   parks; what it returns runs after [mu] is released, however the
   request ends.  The engine releases its session gate in the first and
   retakes it in the second: other sessions take the gate before [mu],
   so the gate must never be awaited while [mu] is held. *)
let acquire ?(on_park = fun () -> ignore) ~timeout_us t tid res mode =
  let resume = ref ignore in
  Fun.protect ~finally:(fun () -> !resume ()) @@ fun () ->
  Mutex.protect t.mu @@ fun () ->
  let e, requested, conflicts = probe t tid res mode in
  match conflicts with
  | [] ->
      grant t e tid res requested;
      0
  | blockers ->
      M.incr t.metrics M.lock_conflicts;
      wait_or_deadlock t tid ~res ~mode blockers;
      if timeout_us <= 0 then begin
        Hashtbl.remove t.waits tid;
        raise (Lock_timeout { tid; res })
      end;
      resume := on_park ();
      park_until_granted t ~timeout_us tid res mode

(* --- queries and release --------------------------------------------- *)

let holds t tid res =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.table res with
      | None -> None
      | Some e -> Hashtbl.find_opt e.holders tid)

(* Strict 2PL: all locks released together at commit/abort, then every
   parked waiter re-probes.  A wait-for edge names only current holders
   of the waited-on resource, and a holder gives a lock up only here, so
   erasing [tid] from every waiter's blocker set purges exactly the edges
   its releases end — which keeps every blocker a [dump] names among
   that dump's holders. *)
let release_all t tid =
  Mutex.protect t.mu (fun () ->
      (match Hashtbl.find_opt t.held tid with
      | None -> ()
      | Some set ->
          Hashtbl.remove t.held tid;
          Hashtbl.iter
            (fun res () ->
              match Hashtbl.find_opt t.table res with
              | None -> ()
              | Some e ->
                  Hashtbl.remove e.holders tid;
                  if Hashtbl.length e.holders = 0 then Hashtbl.remove t.table res)
            set);
      Hashtbl.remove t.waits tid;
      Hashtbl.iter (fun _ w -> Hashtbl.remove w.w_set tid) t.waits;
      Condition.broadcast t.cond)

let held_by t tid =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.held tid with
      | Some set -> Hashtbl.fold (fun res () acc -> res :: acc) set []
      | None -> [])

(* --- introspection dump ---------------------------------------------- *)

type dump = {
  d_holders : (resource * Imdb_clock.Tid.t * mode) list;
  d_waiters : (Imdb_clock.Tid.t * resource * mode * Imdb_clock.Tid.t list) list;
}

(* One consistent cut: holders and waiters are read under the one
   mutex that every edge insert and release also holds. *)
let dump t =
  let holders, waiters =
    Mutex.protect t.mu (fun () ->
        ( Hashtbl.fold
            (fun res e acc ->
              Hashtbl.fold (fun tid m acc -> (res, tid, m) :: acc) e.holders acc)
            t.table [],
          Hashtbl.fold
            (fun tid w acc ->
              let blockers = Hashtbl.fold (fun b () acc -> b :: acc) w.w_set [] in
              (tid, w.w_res, w.w_mode, List.sort Imdb_clock.Tid.compare blockers)
              :: acc)
            t.waits [] ))
  in
  {
    d_holders = List.sort compare holders;
    d_waiters = List.sort compare waiters;
  }

let resource_json res =
  let module J = Imdb_obs.Json in
  match res with
  | Table id -> J.Obj [ ("kind", J.String "table"); ("table", J.Int id) ]
  | Record (id, k) ->
      J.Obj
        [
          ("kind", J.String "record");
          ("table", J.Int id);
          ("key", J.String (String.escaped k));
        ]

let dump_json t =
  let module J = Imdb_obs.Json in
  let d = dump t in
  let tid_json tid = J.String (Imdb_clock.Tid.to_string tid) in
  J.Obj
    [
      ( "holders",
        J.List
          (List.map
             (fun (res, tid, m) ->
               J.Obj
                 [
                   ("resource", resource_json res);
                   ("tid", tid_json tid);
                   ("mode", J.String (Fmt.str "%a" pp_mode m));
                 ])
             d.d_holders) );
      ( "waiters",
        J.List
          (List.map
             (fun (tid, res, m, blockers) ->
               J.Obj
                 [
                   ("tid", tid_json tid);
                   ("resource", resource_json res);
                   ("mode", J.String (Fmt.str "%a" pp_mode m));
                   ("waits_for", J.List (List.map tid_json blockers));
                 ])
             d.d_waiters) );
    ]
