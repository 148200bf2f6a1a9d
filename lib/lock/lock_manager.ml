(* Lock manager.

   Strict two-phase locking for the serializable path (the paper's base
   engine supports "serializable, via fine grained locking"); snapshot
   isolation transactions bypass read locks entirely, which is the point
   of the versioning machinery.

   Resources are hierarchical: table locks in intention modes, record
   locks in S/X.  The lock table, the per-transaction held index and the
   wait-for graph all live under one [Park.spot].  Every engine call
   already runs under the session gate, so only parked waiters contend
   for it; it keeps the manager safe without the gate, and makes every
   read of the three structures one consistent cut.

   There is one acquisition path.  A conflicting request records its
   wait-for edge, and a cycle through it raises [Deadlock] (the
   requester is the victim).  With a zero timeout the request then
   gives up at once ([Lock_timeout]) without parking; otherwise it
   [Park.wait]s until the grant is possible, a holder its edge does not
   name blocks it (the re-probe records that edge, which may close a
   cycle), or the deadline passes — by [Park.now_us], which is virtual
   time under the torture harness's fibers. *)

module M = Imdb_obs.Metrics
module Park = Imdb_util.Park

let h_lock_wait_us = M.histogram_of M.h_lock_wait_us
let lock_acquires = M.counter_of M.lock_acquires
let lock_conflicts = M.counter_of M.lock_conflicts
let lock_deadlocks = M.counter_of M.lock_deadlocks
let lock_timeouts = M.counter_of M.lock_timeouts

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
  mu : Park.spot; (* guards everything below; releases wake its waiters *)
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
    mu = Park.spot ();
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
  M.incr t.metrics lock_acquires

(* --- acquisition -------------------------------------------------------- *)

(* Record [tid]'s wait-for edge, or refuse it when it closes a cycle. *)
let wait_or_deadlock t tid ~res ~mode blockers =
  if note_wait_or_cycle t tid ~res ~mode blockers then begin
    M.incr t.metrics lock_deadlocks;
    raise (Deadlock tid)
  end

(* Park until granted (caller holds [mu] and has recorded its edge),
   re-probing whenever the grant is possible or a holder the edge does
   not name blocks the request (its new edge may close a cycle).
   Returns the microseconds spent parked; a deadlock or a passed
   deadline raises instead, leaving no edge behind. *)
let park_until_granted t ~timeout_us tid res mode =
  let started = Park.now_us () in
  let deadline_us = started + timeout_us in
  let news () =
    match (probe t tid res mode, Hashtbl.find_opt t.waits tid) with
    | (_, _, []), _ | _, None -> true
    | (_, _, blockers), Some w -> List.exists (fun b -> not (Hashtbl.mem w.w_set b)) blockers
  in
  let rec loop () =
    Park.wait ~deadline_us t.mu news;
    let e, requested, conflicts = probe t tid res mode in
    match conflicts with
    | [] -> grant t e tid res requested
    | blockers ->
        wait_or_deadlock t tid ~res ~mode blockers;
        if Park.now_us () >= deadline_us then begin
          Hashtbl.remove t.waits tid;
          M.incr t.metrics lock_timeouts;
          raise (Lock_timeout { tid; res })
        end;
        loop ()
  in
  Imdb_obs.Tracer.with_span t.tracer "lock.wait" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "res" (fun r -> Fmt.str "%a" pp_resource r) res;
  Imdb_obs.Tracer.add_attr sp "mode" (fun m -> Fmt.str "%a" pp_mode m) mode;
  let waited_us = ref 0 in
  Fun.protect loop ~finally:(fun () ->
      waited_us := Park.now_us () - started;
      M.observe t.metrics h_lock_wait_us !waited_us);
  !waited_us

(* [on_park] runs once, under [mu], just before the requester first
   parks; what it returns runs after [mu] is released, however the
   request ends.  The engine releases its session gate in the first and
   retakes it in the second: other sessions take the gate before [mu],
   so the gate must never be awaited while [mu] is held. *)
let acquire ?(on_park = fun () -> ignore) ~timeout_us t tid res mode =
  let resume = ref ignore in
  Fun.protect ~finally:(fun () -> !resume ()) @@ fun () ->
  Park.protect t.mu @@ fun () ->
  let e, requested, conflicts = probe t tid res mode in
  match conflicts with
  | [] ->
      grant t e tid res requested;
      0
  | blockers ->
      M.incr t.metrics lock_conflicts;
      wait_or_deadlock t tid ~res ~mode blockers;
      if timeout_us <= 0 then begin
        Hashtbl.remove t.waits tid;
        raise (Lock_timeout { tid; res })
      end;
      resume := on_park ();
      park_until_granted t ~timeout_us tid res mode

(* --- queries and release --------------------------------------------- *)

(* Strict 2PL: all locks released together at commit/abort, then every
   parked waiter re-probes.  A wait-for edge names only current holders
   of the waited-on resource, and a holder gives a lock up only here, so
   erasing [tid] from every waiter's blocker set purges exactly the edges
   its releases end — which keeps every blocker a [dump] names among
   that dump's holders. *)
let release_all t tid =
  Park.protect t.mu (fun () ->
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
      Park.wake t.mu)

(* --- introspection dump ---------------------------------------------- *)

type dump = {
  d_holders : (resource * Imdb_clock.Tid.t * mode) list;
  d_waiters : (Imdb_clock.Tid.t * resource * mode * Imdb_clock.Tid.t list) list;
}

(* One consistent cut: holders and waiters are read under the one
   mutex that every edge insert and release also holds. *)
let dump t =
  let holders, waiters =
    Park.protect t.mu (fun () ->
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
