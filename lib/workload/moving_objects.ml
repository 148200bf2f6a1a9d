(* Network-based moving-objects workload (after Brinkhoff [8], as used in
   the paper's Section 5).

   Objects appear on the network, send an Insert transaction with their id
   and location, then send Update transactions as they move along a
   shortest path toward a predetermined destination, at per-object rates
   (variable speeds).  An object that reaches its destination stops
   updating — so, as in the paper, objects accumulate different numbers
   of updates.

   The generator is deterministic in its seed and can be asked for an
   exact transaction mix: [n_objects] inserts followed by updates until
   [total_txns] events have been produced (objects that finish their trip
   are re-dispatched on a new trip to keep the update stream flowing,
   which matches the generator's continuous-traffic mode). *)

type event =
  | Insert of { oid : int; x : int; y : int }
  | Update of { oid : int; x : int; y : int }

type obj = {
  o_id : int;
  mutable o_path : int list;
  mutable o_travelled : float;
  o_speed : float; (* distance per tick *)
  o_period : int; (* ticks between updates: variable rates *)
  mutable o_total : float; (* current path length *)
}

type t = {
  rng : Imdb_util.Rng.t;
  network : Road_network.t;
  mutable objects : obj list;
  mutable tick : int;
}

let coord v = int_of_float (v *. 1000.0)

let new_trip t ~src =
  let n = Road_network.size t.network in
  let rec pick () =
    let dst = Imdb_util.Rng.int t.rng n in
    if dst = src then pick () else dst
  in
  let dst = pick () in
  match Road_network.shortest_path t.network ~src ~dst with
  | Some path -> path
  | None -> [ src ] (* unreachable under the connectivity guarantee *)

let create ?(seed = 42) ?(cols = 20) ?(rows = 20) () =
  let rng = Imdb_util.Rng.create seed in
  let network = Road_network.generate ~cols ~rows rng in
  { rng; network; objects = []; tick = 0 }

let network t = t.network

let spawn t oid =
  let src = Imdb_util.Rng.int t.rng (Road_network.size t.network) in
  let path = new_trip t ~src in
  let o =
    {
      o_id = oid;
      o_path = path;
      o_travelled = 0.0;
      o_speed = 0.05 +. (Imdb_util.Rng.float t.rng *. 0.2);
      o_period = Imdb_util.Rng.int_in t.rng 1 4;
      o_total = Road_network.path_length t.network path;
    }
  in
  t.objects <- o :: t.objects;
  let x, y = Road_network.position_along t.network o.o_path ~travelled:0.0 in
  Insert { oid; x = coord x; y = coord y }

(* One simulation tick: every object due this tick moves and reports. *)
let step t =
  t.tick <- t.tick + 1;
  List.filter_map
    (fun o ->
      if t.tick mod o.o_period <> 0 then None
      else begin
        o.o_travelled <- o.o_travelled +. (o.o_speed *. float_of_int o.o_period);
        if o.o_travelled >= o.o_total then begin
          (* destination reached: re-dispatch on a fresh trip *)
          let last =
            match List.rev o.o_path with last :: _ -> last | [] -> 0
          in
          o.o_path <- new_trip t ~src:last;
          o.o_total <- Road_network.path_length t.network o.o_path;
          o.o_travelled <- 0.0
        end;
        let x, y =
          Road_network.position_along t.network o.o_path ~travelled:o.o_travelled
        in
        Some (Update { oid = o.o_id; x = coord x; y = coord y })
      end)
    t.objects

(* The paper's experiment shape: [inserts] objects, then updates until
   [total] transactions in all.  Returns the event list in order. *)
let generate ?seed ~inserts ~total () =
  if total < inserts then invalid_arg "Moving_objects.generate: total < inserts";
  let t = create ?seed () in
  let events = ref [] in
  let count = ref 0 in
  for oid = 1 to inserts do
    events := spawn t oid :: !events;
    incr count
  done;
  while !count < total do
    let batch = step t in
    List.iter
      (fun ev ->
        if !count < total then begin
          events := ev :: !events;
          incr count
        end)
      batch
  done;
  List.rev !events

(* Summary statistics used by the Fig. 4 bench (in place of the paper's
   screenshot): updates per object distribution etc. *)
type stats = {
  st_objects : int;
  st_inserts : int;
  st_updates : int;
  st_min_updates : int;
  st_max_updates : int;
  st_mean_updates : float;
}

let stats_of events =
  let tbl = Hashtbl.create 64 in
  let inserts = ref 0 and updates = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Insert _ -> incr inserts
      | Update { oid; _ } ->
          incr updates;
          Hashtbl.replace tbl oid (1 + Option.value ~default:0 (Hashtbl.find_opt tbl oid)))
    events;
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) tbl [] in
  let counts = if counts = [] then [ 0 ] else counts in
  {
    st_objects = !inserts;
    st_inserts = !inserts;
    st_updates = !updates;
    st_min_updates = List.fold_left min max_int counts;
    st_max_updates = List.fold_left max 0 counts;
    st_mean_updates =
      float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts);
  }
