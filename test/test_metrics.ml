(* The per-engine observability registry: counter and histogram semantics,
   percentile determinism, JSON round-trips, and — the
   reason the registry replaced the old process-global Stats table —
   isolation between two databases open in the same process. *)

open Helpers
module M = Imdb_obs.Metrics
module J = Imdb_obs.Json
module Db = Imdb_core.Db

(* --- counters and gauges --------------------------------------------------- *)

let test_counters () =
  let m = M.create () in
  Alcotest.(check int) "unknown counter is zero" 0 (M.get m "nope");
  M.incr m (M.counter_of "a");
  M.incr m (M.counter_of "a");
  M.add m (M.counter_of "a") 40;
  Alcotest.(check int) "accumulates" 42 (M.get m "a");
  M.set_gauge m (M.gauge_of "g") 7;
  M.set_gauge m (M.gauge_of "g") 3;
  Alcotest.(check int) "gauge last-write-wins" 3 (M.gauge m "g");
  M.reset m;
  Alcotest.(check int) "reset zeroes" 0 (M.get m "a")

let test_null_registry () =
  Alcotest.(check bool) "null is disabled" false (M.enabled M.null);
  M.incr M.null (M.counter_of "a");
  M.observe M.null (M.histogram_of "h") 5;
  Alcotest.(check int) "null records nothing" 0 (M.get M.null "a");
  Alcotest.(check (option reject)) "null has no histograms" None
    (Option.map ignore (M.histogram M.null "h"))

(* --- histograms ------------------------------------------------------------- *)

let test_histogram_percentiles () =
  let m = M.create () in
  (* 100 observations 1..100: p50 rounds up to the bucket bound above 50
     (64), p99 to the bound above 99 (128) clamped to the observed max. *)
  for v = 1 to 100 do
    M.observe m (M.histogram_of "h") v
  done;
  match M.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 100 h.M.h_count;
      Alcotest.(check int) "sum" 5050 h.M.h_sum;
      Alcotest.(check int) "max" 100 h.M.h_max;
      Alcotest.(check int) "p50 = bucket bound" 64 h.M.h_p50;
      Alcotest.(check int) "p99 clamped to max" 100 h.M.h_p99

let test_histogram_determinism () =
  (* same multiset, different order => identical summary *)
  let feed order =
    let m = M.create () in
    List.iter (fun v -> M.observe m (M.histogram_of "h") v) order;
    Option.get (M.histogram m "h")
  in
  let a = feed [ 1; 1000; 17; 42; 42; 9; 100000; 3 ] in
  let b = feed [ 100000; 3; 42; 1; 9; 42; 17; 1000 ] in
  Alcotest.(check bool) "order-independent" true (a = b)

let test_histogram_edges () =
  let m = M.create () in
  M.observe m (M.histogram_of "h") (-5);
  (* clamps to 0 *)
  M.observe m (M.histogram_of "h") 0;
  M.observe m (M.histogram_of "h") max_int;
  (match M.histogram m "h" with
  | Some h ->
      Alcotest.(check int) "count" 3 h.M.h_count;
      Alcotest.(check int) "max" max_int h.M.h_max;
      Alcotest.(check int) "p50 in first bucket" 1 h.M.h_p50
  | None -> Alcotest.fail "histogram missing");
  M.ensure_histogram m (M.histogram_of "empty");
  match M.histogram m "empty" with
  | Some h ->
      Alcotest.(check int) "empty count" 0 h.M.h_count;
      Alcotest.(check int) "empty p99" 0 h.M.h_p99
  | None -> Alcotest.fail "ensure_histogram did not register"

let test_percentiles_api () =
  let m = M.create () in
  for v = 1 to 100 do
    M.observe m (M.histogram_of "h") v
  done;
  (* same extraction the monitor uses: rank = ceil(q * count), walked
     through the power-of-two buckets, capped at the observed max *)
  Alcotest.(check (list int)) "p50/p90/p99" [ 64; 100; 100 ]
    (M.percentiles m "h" [ 0.5; 0.9; 0.99 ]);
  Alcotest.(check (list int)) "unknown histogram yields zeros" [ 0; 0 ]
    (M.percentiles m "nope" [ 0.5; 0.99 ]);
  M.observe m (M.histogram_of "other") 7;
  Alcotest.(check (list string)) "histograms listing is sorted" [ "h"; "other" ]
    (List.map fst (M.histograms m))

(* Satellite of the monitor work: snapshot/diff (what the sampler runs on
   every tick) must be exact under concurrent writers from other domains. *)
let test_snapshot_diff_concurrent_domains () =
  let m = M.create () in
  let domains = 4 and per = 5_000 in
  let before = M.snapshot m in
  let spawned =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let shared = M.counter_of "c.shared"
            and own = M.counter_of (Printf.sprintf "c.d%d" d)
            and lat = M.histogram_of "h.lat" in
            for i = 1 to per do
              M.incr m shared;
              M.incr m own;
              M.observe m lat (i land 255)
            done))
  in
  (* snapshots taken mid-flight must stay monotonic per counter *)
  let mid1 = M.snapshot m in
  let mid2 = M.snapshot m in
  let at name s = Option.value (List.assoc_opt name s) ~default:0 in
  Alcotest.(check bool) "mid-flight snapshots monotonic" true
    (at "c.shared" mid2 >= at "c.shared" mid1);
  Array.iter Domain.join spawned;
  let after = M.snapshot m in
  Alcotest.(check int) "shared counter exact" (domains * per) (at "c.shared" after);
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "domain %d private counter" d)
      per
      (at (Printf.sprintf "c.d%d" d) after)
  done;
  let deltas = M.diff ~before ~after in
  Alcotest.(check int) "diff reports the full delta" (domains * per)
    (at "c.shared" deltas);
  Alcotest.(check (list (pair string int))) "diff of identical snapshots is empty"
    [] (M.diff ~before:after ~after);
  match M.histogram m "h.lat" with
  | Some h -> Alcotest.(check int) "histogram count exact" (domains * per) h.M.h_count
  | None -> Alcotest.fail "histogram missing"

(* Two domains record into one counter and one histogram with no lock:
   every add lands.  Each domain observes 2^0 .. 2^19 in turn, so each of
   the first 20 buckets ends with exactly [2 * per / 20] observations;
   percentile probes at each cumulative bucket boundary and one rank past
   it read back every bucket total. *)
let test_lockfree_exact () =
  let m = M.create () in
  let per = 100_000 and buckets = 20 in
  let c = M.counter_of "lf.count" and h = M.histogram_of "lf.hist" in
  let spawned =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              M.incr m c;
              M.observe m h (1 lsl (i mod buckets))
            done))
  in
  Array.iter Domain.join spawned;
  let n = 2 * per in
  Alcotest.(check int) "counter exact" n (M.get m "lf.count");
  let s = Option.get (M.histogram m "lf.hist") in
  Alcotest.(check int) "count exact" n s.M.h_count;
  Alcotest.(check int) "sum exact" (n / buckets * ((1 lsl buckets) - 1)) s.M.h_sum;
  Alcotest.(check int) "max exact" (1 lsl (buckets - 1)) s.M.h_max;
  let per_bucket = n / buckets in
  let at rank = (float_of_int rank -. 0.5) /. float_of_int n in
  (* the ranks through bucket j (which holds 2^j) end at per_bucket * (j + 1) *)
  let js = List.init (buckets - 1) Fun.id in
  let qs =
    List.concat_map (fun j -> [ at (per_bucket * (j + 1)); at ((per_bucket * (j + 1)) + 1) ]) js
  in
  let expected = List.concat_map (fun j -> [ 1 lsl j; 1 lsl (j + 1) ]) js in
  Alcotest.(check (list int)) "bucket totals exact" expected (M.percentiles m "lf.hist" qs)

let test_interning () =
  Alcotest.(check bool) "same counter handle" true (M.counter_of "i.x" = M.counter_of "i.x");
  Alcotest.(check bool) "distinct names, distinct handles" false
    (M.counter_of "i.x" = M.counter_of "i.y");
  Alcotest.(check bool) "same gauge handle" true (M.gauge_of "i.g" = M.gauge_of "i.g");
  Alcotest.(check bool) "same histogram handle" true
    (M.histogram_of "i.h" = M.histogram_of "i.h");
  (* one handle records into whichever registry it is given *)
  let a = M.create () and b = M.create () in
  M.incr a (M.counter_of "i.x");
  M.add b (M.counter_of "i.x") 2;
  Alcotest.(check (pair int int)) "per-registry cells" (1, 2) (M.get a "i.x", M.get b "i.x")

(* A metric appears once ensured or recorded in this registry: interning
   a name, or recording it elsewhere, does not make it appear. *)
let test_presence () =
  let m = M.create () and other = M.create () in
  let c = M.counter_of "p.counter" and g = M.gauge_of "p.gauge" in
  let h = M.histogram_of "p.hist" and e = M.counter_of "p.ensured" in
  M.incr other c;
  M.set_gauge other g 1;
  M.observe other h 1;
  M.incr M.null c;
  let counters () = List.map fst (M.snapshot m) in
  Alcotest.(check (list string)) "interned only: absent" [] (counters ());
  Alcotest.(check string) "empty exposition" "" (M.to_prometheus m);
  M.ensure_counter m e;
  Alcotest.(check (list (pair string int))) "ensured at zero" [ ("p.ensured", 0) ]
    (M.snapshot m);
  M.incr m c;
  Alcotest.(check (list string)) "incremented" [ "p.counter"; "p.ensured" ] (counters ());
  Alcotest.(check bool) "histogram absent" true (M.histogram m "p.hist" = None);
  M.ensure_histogram m h;
  Alcotest.(check bool) "histogram ensured" true (M.histogram m "p.hist" <> None);
  M.set_gauge m g 4;
  Alcotest.(check int) "gauge set" 4 (M.gauge m "p.gauge");
  M.reset m;
  Alcotest.(check (list string)) "reset empties" [] (counters ());
  Alcotest.(check string) "reset exposition" "" (M.to_prometheus m)

(* A fixed recording's expositions, byte for byte as the string-keyed,
   mutex-guarded registry printed them. *)
let golden_json =
  "{\"schema_version\":13,\"counters\":{\"a.first\":2,\"txn.commits\":3,\"v\\\"with\\nescapes\":1,\"zero.ensured\":0},\"gauges\":{\"pool.depth\":5},\"histograms\":{\"edges\":{\"count\":7,\"sum\":2147483655,\"max\":1073741825,\"p50\":2,\"p90\":1073741825,\"p99\":1073741825},\"empty\":{\"count\":0,\"sum\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0},\"lat.ms\":{\"count\":100,\"sum\":5050,\"max\":100,\"p50\":64,\"p90\":100,\"p99\":100}}}"

let golden_prometheus =
  "# TYPE imdb_a_first counter\nimdb_a_first 2\n# TYPE imdb_txn_commits counter\nimdb_txn_commits 3\n# TYPE imdb_v_with_escapes counter\nimdb_v_with_escapes 1\n# TYPE imdb_zero_ensured counter\nimdb_zero_ensured 0\n# TYPE imdb_pool_depth gauge\nimdb_pool_depth 5\n# TYPE imdb_edges summary\nimdb_edges{quantile=\"0.5\"} 2\nimdb_edges{quantile=\"0.9\"} 1073741825\nimdb_edges{quantile=\"0.99\"} 1073741825\nimdb_edges_sum 2147483655\nimdb_edges_count 7\n# TYPE imdb_empty summary\nimdb_empty{quantile=\"0.5\"} 0\nimdb_empty{quantile=\"0.9\"} 0\nimdb_empty{quantile=\"0.99\"} 0\nimdb_empty_sum 0\nimdb_empty_count 0\n# TYPE imdb_lat_ms summary\nimdb_lat_ms{quantile=\"0.5\"} 64\nimdb_lat_ms{quantile=\"0.9\"} 100\nimdb_lat_ms{quantile=\"0.99\"} 100\nimdb_lat_ms_sum 5050\nimdb_lat_ms_count 100\n"

let test_exposition_golden () =
  let m = M.create () in
  M.add m (M.counter_of "txn.commits") 3;
  M.incr m (M.counter_of "a.first");
  M.incr m (M.counter_of "a.first");
  M.ensure_counter m (M.counter_of "zero.ensured");
  M.incr m (M.counter_of "v\"with\nescapes");
  M.set_gauge m (M.gauge_of "pool.depth") 7;
  M.set_gauge m (M.gauge_of "pool.depth") 5;
  let lat = M.histogram_of "lat.ms" and edges = M.histogram_of "edges" in
  for v = 1 to 100 do
    M.observe m lat v
  done;
  List.iter (M.observe m edges) [ -5; 0; 1; 2; 3; 1 lsl 30; (1 lsl 30) + 1 ];
  M.ensure_histogram m (M.histogram_of "empty");
  Alcotest.(check string) "JSON" golden_json (M.to_json_string m);
  Alcotest.(check string) "Prometheus" golden_prometheus (M.to_prometheus m)

let test_prometheus_exposition () =
  let m = M.create () in
  M.add m (M.counter_of "txn.commits") 3;
  M.set_gauge m (M.gauge_of "pool.depth") 7;
  for v = 1 to 100 do
    M.observe m (M.histogram_of "lat.ms") v
  done;
  let s = M.to_prometheus m in
  let has sub =
    let n = String.length sub and ls = String.length s in
    let rec go i = i + n <= ls && (String.sub s i n = sub || go (i + 1)) in
    Alcotest.(check bool) ("contains " ^ sub) true (go 0)
  in
  has "# TYPE imdb_txn_commits counter\nimdb_txn_commits 3\n";
  has "# TYPE imdb_pool_depth gauge\nimdb_pool_depth 7\n";
  has "# TYPE imdb_lat_ms summary\n";
  has "imdb_lat_ms{quantile=\"0.5\"} 64\n";
  has "imdb_lat_ms{quantile=\"0.99\"} 100\n";
  has "imdb_lat_ms_sum 5050\n";
  has "imdb_lat_ms_count 100\n"

(* --- JSON ------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let m = M.create () in
  M.add m (M.counter_of "z.last") 3;
  M.incr m (M.counter_of "a.first");
  M.set_gauge m (M.gauge_of "depth") 12;
  for v = 1 to 50 do
    M.observe m (M.histogram_of "lat") v
  done;
  M.incr m (M.counter_of "v\"with\nescapes");
  let str = M.to_json_string m in
  match J.parse str with
  | Error e -> Alcotest.fail ("unparseable exposition: " ^ e)
  | Ok j ->
      let int_at path =
        let rec go j = function
          | [] -> J.to_int j
          | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
        in
        Option.value ~default:(-1) (go j path)
      in
      Alcotest.(check int) "schema_version" M.schema_version
        (int_at [ "schema_version" ]);
      Alcotest.(check int) "counter value" 3 (int_at [ "counters"; "z.last" ]);
      Alcotest.(check int) "histogram count" 50 (int_at [ "histograms"; "lat"; "count" ]);
      Alcotest.(check int) "gauge" 12 (int_at [ "gauges"; "depth" ]);
      (* counters object is emitted sorted -> byte-stable document *)
      (match J.member "counters" j with
      | Some (J.Obj kvs) ->
          let keys = List.map fst kvs in
          Alcotest.(check (list string)) "sorted keys" (List.sort compare keys) keys
      | _ -> Alcotest.fail "counters not an object");
      (* the escaped name survived the round-trip *)
      Alcotest.(check int) "escape round-trip" 1
        (int_at [ "counters"; "v\"with\nescapes" ]);
      (* re-printing the parsed value reproduces the document byte for byte *)
      Alcotest.(check string) "byte-stable" str (J.to_string j)

(* --- per-engine isolation ---------------------------------------------------

   The regression that motivated the registry: with the old global Stats
   table, two open databases shared every counter (and Stats.reset_all
   from one test clobbered another's numbers).  Two engines must now
   observe only their own work. *)

let test_two_dbs_isolated () =
  let db1, clock1 = fresh_db () in
  let db2, _clock2 = fresh_db () in
  Alcotest.(check bool) "distinct registries" true (Db.metrics db1 != Db.metrics db2);
  Db.create_table db1 ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Db.create_table db2 ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let commits m = M.get m M.txn_commits in
  let c1 = commits (Db.metrics db1) and c2 = commits (Db.metrics db2) in
  (* work only on db1 *)
  for i = 1 to 10 do
    tick clock1;
    ignore (commit_write db1 (fun txn -> Db.insert_row db1 txn ~table:"t" (row i "x")))
  done;
  Alcotest.(check int) "db1 counted its commits" (c1 + 10) (commits (Db.metrics db1));
  Alcotest.(check int) "db2 unaffected" c2 (commits (Db.metrics db2));
  (* buffer traffic from db1's reads must not appear in db2 *)
  let hits m = M.get m M.buf_hits in
  let h2 = hits (Db.metrics db2) in
  Db.exec db1 (fun txn -> ignore (Db.scan_rows db1 txn ~table:"t"));
  Alcotest.(check int) "db1 reads don't bleed into db2" h2 (hits (Db.metrics db2));
  (* and reset on one registry cannot touch the other (the reset_all bug) *)
  let h1 = hits (Db.metrics db1) in
  Alcotest.(check bool) "db1 saw buffer traffic" true (h1 > 0);
  M.reset (Db.metrics db2);
  Alcotest.(check int) "reset of db2 left db1 intact" h1 (hits (Db.metrics db1));
  Db.close db1;
  Db.close db2

let test_crash_reopen_fresh_registry () =
  (* crash_and_reopen builds a new engine over the same devices: the new
     handle's registry starts clean and counts only post-recovery work *)
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  for i = 1 to 20 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "x")))
  done;
  let old = Db.metrics db in
  let before = M.get old M.txn_commits in
  Alcotest.(check bool) "work recorded before crash" true (before >= 20);
  let db = Db.crash_and_reopen ~clock db in
  Alcotest.(check bool) "new registry" true (Db.metrics db != old);
  Alcotest.(check int) "no commits yet after recovery" 0
    (M.get (Db.metrics db) M.txn_commits);
  Db.exec db (fun txn ->
      Alcotest.(check int) "data recovered" 20 (List.length (Db.scan_rows db txn ~table:"t")));
  Db.close db

let test_hotpath_instruments_preregistered () =
  (* the hot-path counters must appear (at zero) in every engine's
     exposition from the moment it opens, so dashboards and the bench
     gate never see them pop in and out of the schema *)
  let db, _clock = fresh_db () in
  (match J.parse (M.to_json_string (Db.metrics db)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let present section name =
        match Option.bind (J.member section j) (J.member name) with
        | Some _ -> true
        | None -> false
      in
      List.iter
        (fun n -> Alcotest.(check bool) n true (present "counters" n))
        [ M.buf_clock_sweeps; M.keydir_hits; M.keydir_misses ];
      Alcotest.(check bool) "group-commit histogram" true
        (present "histograms" M.h_group_commit_batch));
  Db.close db

let suite =
  [
    Alcotest.test_case "counters & gauges" `Quick test_counters;
    Alcotest.test_case "null registry" `Quick test_null_registry;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram determinism" `Quick test_histogram_determinism;
    Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
    Alcotest.test_case "percentiles API" `Quick test_percentiles_api;
    Alcotest.test_case "snapshot/diff under concurrent domains" `Quick
      test_snapshot_diff_concurrent_domains;
    Alcotest.test_case "lock-free recording is exact" `Quick test_lockfree_exact;
    Alcotest.test_case "interning" `Quick test_interning;
    Alcotest.test_case "presence rules" `Quick test_presence;
    Alcotest.test_case "exposition golden" `Quick test_exposition_golden;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "two DBs isolated" `Quick test_two_dbs_isolated;
    Alcotest.test_case "fresh registry after crash" `Quick test_crash_reopen_fresh_registry;
    Alcotest.test_case "hot-path instruments pre-registered" `Quick
      test_hotpath_instruments_preregistered;
  ]
