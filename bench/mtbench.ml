(* Multi-core transaction execution: closed-loop sessions on N domains.

   One database, one session per domain, each session a closed loop of
   short transactions over its own key partition (inserts, updates, and
   AS OF reads of its own earlier commits).  The log device is an
   in-memory store with a deliberately slow [sync] (a few milliseconds
   of sleep, the cost profile of a real commit fsync), so the experiment
   measures what the engine's concurrency machinery is for: overlapping
   commit waits.  While one session sleeps in the commit-record sync —
   outside the engine's session gate — the others run their reads and
   writes and append their commit records, and a single device sync
   acknowledges the whole batch.

   Reported per arm (1, 2, 4 domains): committed transactions, wall
   time, throughput, and commit latency percentiles.  The scaling claim
   (4-domain committed-txn throughput >= 1.5x the 1-domain run) is the
   point of the experiment, so it goes into BENCH_mtbench.json as a
   bool alongside the deterministic logical counters (commit counts,
   row counts, AS OF check counts — never wall time). *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp

(* Commit-fsync cost, per device sync.  Unix.sleepf parks only the
   calling domain, so concurrent committers' syncs overlap exactly the
   way real fsyncs from independent threads would. *)
let sync_cost_s = 0.004

let slow_sync_device () =
  let base = Imdb_wal.Wal.Device.in_memory () in
  {
    base with
    Imdb_wal.Wal.Device.sync =
      (fun () ->
        Unix.sleepf sync_cost_s;
        base.Imdb_wal.Wal.Device.sync ());
  }

let schema =
  S.make
    [
      { S.col_name = "id"; col_type = S.T_int };
      { S.col_name = "val"; col_type = S.T_string };
    ]

let config =
  {
    E.default_config with
    E.pool_capacity = 512;
    auto_checkpoint_every = 0;
    (* Real waits, not fail-fast: sessions are partitioned so conflicts
       are rare, but table intent locks still meet. *)
    lock_wait_timeout_ms = 2000;
  }

(* One session's closed loop: [txns] transactions over keys
   [base .. base+span).  Every transaction inserts one fresh key and
   updates one earlier key; every 8th transaction also re-reads the
   session's own partition AS OF a commit timestamp it saw earlier and
   checks the row count is exactly what it was then.  Returns
   (committed, asof_checks_passed, commit latencies). *)
let session_loop db ~sid ~txns ~base =
  let s = Db.session db in
  let lat = Array.make txns 0.0 in
  let committed = ref 0 in
  let asof_ok = ref 0 in
  let past : (Ts.t * int) option ref = ref None in
  for i = 0 to txns - 1 do
    let t0 = Unix.gettimeofday () in
    let txn = Db.Session.begin_txn s in
    let key = base + i in
    Db.Session.insert s txn ~table:"t"
      ~key:(S.encode_key (S.V_int key))
      ~payload:(Printf.sprintf "s%d-i%d" sid i);
    if i > 0 then begin
      let upd = base + ((i * 7) mod i) in
      Db.Session.update s txn ~table:"t"
        ~key:(S.encode_key (S.V_int upd))
        ~payload:(Printf.sprintf "s%d-u%d" sid i)
    end;
    (match Db.Session.commit s txn with
    | Some ts ->
        incr committed;
        if i mod 8 = 0 then past := Some (ts, i + 1)
    | None -> ());
    lat.(i) <- Unix.gettimeofday () -. t0;
    if i mod 8 = 7 then
      match !past with
      | None -> ()
      | Some (ts, rows_then) ->
          Db.Session.as_of s ts (fun txn ->
              let n = ref 0 in
              Db.Session.scan_as_of s txn ~table:"t" ~ts
                ~lo:(S.encode_key (S.V_int base))
                ~hi:(S.encode_key (S.V_int (base + txns)))
                (fun _ _ -> incr n);
              if !n = rows_then then incr asof_ok)
  done;
  (!committed, !asof_ok, lat)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

type arm = {
  a_domains : int;
  a_committed : int;
  a_asof_ok : int;
  a_rows : int;
  a_syncs : int;
  a_wall : float;
  a_lat : float array; (* sorted commit latencies *)
  a_lock_wait : M.hist_summary option; (* lock.wait_us *)
  a_batch : M.hist_summary option; (* txn.group_commit_batch *)
}

let run_arm ~domains ~txns =
  let clock = Imdb_clock.Clock.create_logical () in
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let db =
    Db.open_devices ~config ~clock ~disk ~log_device:(slow_sync_device ()) ()
  in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  (* The logical clock only moves when advanced; tick it from a ticker
     domain is overkill — each session's commits get distinct
     timestamps from the engine's own issuance, we just need the clock
     ahead of the work.  Advance it far enough for every commit. *)
  Imdb_clock.Clock.advance clock (Int64.of_int (20 * domains * txns));
  let wall, results =
    Harness.time_it (fun () ->
        if domains = 1 then [| session_loop db ~sid:0 ~txns ~base:0 |]
        else
          let spawned =
            Array.init domains (fun sid ->
                Domain.spawn (fun () ->
                    session_loop db ~sid ~txns ~base:(sid * 1_000_000)))
          in
          Array.map Domain.join spawned)
  in
  let committed = Array.fold_left (fun a (c, _, _) -> a + c) 0 results in
  let asof_ok = Array.fold_left (fun a (_, k, _) -> a + k) 0 results in
  let lat =
    Array.concat (Array.to_list (Array.map (fun (_, _, l) -> l) results))
  in
  Array.sort compare lat;
  let rows = ref 0 in
  Db.exec db (fun txn -> Db.scan db txn ~table:"t" (fun _ _ -> incr rows));
  let syncs = M.get (Db.metrics db) M.log_flushes in
  let lock_wait = M.histogram (Db.metrics db) M.h_lock_wait_us in
  let batch = M.histogram (Db.metrics db) M.h_group_commit_batch in
  Db.close db;
  {
    a_domains = domains;
    a_committed = committed;
    a_asof_ok = asof_ok;
    a_rows = !rows;
    a_syncs = syncs;
    a_wall = wall;
    a_lat = lat;
    a_lock_wait = lock_wait;
    a_batch = batch;
  }

let run ~scale =
  let txns = Harness.scaled ~scale 800 in
  let arms = List.map (fun d -> run_arm ~domains:d ~txns) [ 1; 2; 4 ] in
  let tput a = float_of_int a.a_committed /. a.a_wall in
  let base = List.hd arms in
  Harness.print_table
    ~title:
      (Fmt.str "mtbench: closed-loop sessions, %d txns/session, %.1fms sync"
         txns (sync_cost_s *. 1000.0))
    ~header:
      [ "domains"; "committed"; "syncs"; "wall ms"; "txn/s"; "speedup"; "p50 ms"; "p95 ms"; "p99 ms" ]
    (List.map
       (fun a ->
         [
           string_of_int a.a_domains;
           string_of_int a.a_committed;
           string_of_int a.a_syncs;
           Harness.ms a.a_wall;
           Fmt.str "%.0f" (tput a);
           Fmt.str "%.2fx" (tput a /. tput base);
           Harness.ms (percentile a.a_lat 0.50);
           Harness.ms (percentile a.a_lat 0.95);
           Harness.ms (percentile a.a_lat 0.99);
         ])
       arms);
  let arm4 = List.nth arms 2 in
  let speedup = tput arm4 /. tput base in
  let ok a = a.a_committed = a.a_domains * txns && a.a_rows = a.a_committed in
  let all_committed = List.for_all ok arms in
  let asof_expected a = a.a_domains * (txns / 8) in
  let asof_all = List.for_all (fun a -> a.a_asof_ok = asof_expected a) arms in
  if not all_committed then Fmt.epr "mtbench: COMMIT/ROW COUNTS WRONG@.";
  if not asof_all then Fmt.epr "mtbench: AS OF CHECKS FAILED@.";
  if speedup < 1.5 then
    Fmt.epr "mtbench: 4-domain speedup %.2fx below 1.5x floor@." speedup;
  let module J = Imdb_obs.Json in
  (* Latency-shape summaries from the engine's own histograms.  Timing
     and interleaving dependent, so never in the checked-in baseline
     (bench_check walks baseline keys only) — they ride along for humans
     and dashboards reading BENCH_mtbench.json. *)
  let hist_json = function
    | None -> J.Null
    | Some h ->
        J.Obj
          [
            ("count", J.Int h.M.h_count);
            ("p50", J.Int h.M.h_p50);
            ("p90", J.Int h.M.h_p90);
            ("p99", J.Int h.M.h_p99);
            ("max", J.Int h.M.h_max);
          ]
  in
  Harness.emit_json ~name:"mtbench"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ("txns_per_session", J.Int txns);
         ( "arms",
           J.Obj
             (List.map
                (fun a ->
                  ( string_of_int a.a_domains,
                    J.Obj
                      [
                        ("committed", J.Int a.a_committed);
                        ("rows", J.Int a.a_rows);
                        ("asof_checks_ok", J.Int a.a_asof_ok);
                        ("lock_wait_us", hist_json a.a_lock_wait);
                        ("group_commit_batch", hist_json a.a_batch);
                      ] ))
                arms) );
         ("all_committed", J.Bool all_committed);
         ("asof_checks_all_pass", J.Bool asof_all);
         ("speedup_ge_1_5", J.Bool (speedup >= 1.5));
       ])

let () =
  Harness.register ~name:"mtbench"
    ~doc:"multi-session throughput: N domains, slow-sync log, group commit" run
