(* Moving-objects workload generator: determinism, shape, and replay. *)

module Mo = Imdb_workload.Moving_objects
module Rn = Imdb_workload.Road_network
module Driver = Imdb_workload.Driver
module Db = Imdb_core.Db

let test_network () =
  let rng = Imdb_util.Rng.create 7 in
  let net = Rn.generate ~cols:10 ~rows:10 rng in
  Alcotest.(check int) "100 nodes" 100 (Rn.size net);
  Alcotest.(check bool) "edges exist" true (Rn.edge_count net > 100);
  (* every pair on the guaranteed spanning rows/cols is reachable *)
  (match Rn.shortest_path net ~src:0 ~dst:99 with
  | Some path ->
      Alcotest.(check bool) "path starts at src" true (List.hd path = 0);
      Alcotest.(check bool) "path ends at dst" true
        (List.nth path (List.length path - 1) = 99);
      Alcotest.(check bool) "positive length" true (Rn.path_length net path > 0.0)
  | None -> Alcotest.fail "grid must be connected")

let test_generator_shape () =
  let events = Mo.generate ~seed:1 ~inserts:50 ~total:500 () in
  Alcotest.(check int) "exact event count" 500 (List.length events);
  let stats = Mo.stats_of events in
  Alcotest.(check int) "inserts" 50 stats.Mo.st_inserts;
  Alcotest.(check int) "updates" 450 stats.Mo.st_updates;
  (* variable rates: not all objects have the same number of updates *)
  Alcotest.(check bool) "variable update counts" true
    (stats.Mo.st_min_updates < stats.Mo.st_max_updates);
  (* the first [inserts] events are the inserts *)
  let first_50 = List.filteri (fun i _ -> i < 50) events in
  Alcotest.(check bool) "prefix is inserts" true
    (List.for_all (function Mo.Insert _ -> true | Mo.Update _ -> false) first_50)

let test_determinism () =
  let a = Mo.generate ~seed:9 ~inserts:20 ~total:200 () in
  let b = Mo.generate ~seed:9 ~inserts:20 ~total:200 () in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Mo.generate ~seed:10 ~inserts:20 ~total:200 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_replay_against_engine () =
  let events = Mo.generate ~seed:3 ~inserts:25 ~total:300 () in
  let db, clock = Driver.fresh_moving_objects ~mode:Db.Immortal () in
  let result = Driver.run_events ~clock db ~table:"MovingObjects" events in
  Alcotest.(check int) "all events applied" 300 result.Driver.rr_events;
  (* the current table has exactly the 25 objects, at their last position *)
  let _, n = Driver.timed_scan_current db ~table:"MovingObjects" in
  Alcotest.(check int) "25 current objects" 25 n;
  (* each sampled commit timestamp yields a consistent as-of count: after
     the first k events, every inserted object so far is present *)
  let ts_mid = List.nth result.Driver.rr_commit_ts 150 in
  let n_mid = (Driver.measured_scan_as_of db ~table:"MovingObjects" ~ts:ts_mid).Driver.sm_rows in
  Alcotest.(check int) "as-of mid sees all objects" 25 n_mid;
  let ts_early = List.nth result.Driver.rr_commit_ts 10 in
  let n_early =
    (Driver.measured_scan_as_of db ~table:"MovingObjects" ~ts:ts_early).Driver.sm_rows
  in
  Alcotest.(check int) "as-of early sees first 11 objects" 11 n_early;
  Db.close db

let suite =
  [
    Alcotest.test_case "road network" `Quick test_network;
    Alcotest.test_case "generator shape" `Quick test_generator_shape;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "replay against engine" `Quick test_replay_against_engine;
  ]
