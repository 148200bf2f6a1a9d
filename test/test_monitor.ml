(* Live introspection: the continuous monitor (deterministic manual
   sampling, ring bounds, the background thread), per-session statistics,
   consistent lock dumps under real contention, the SESSIONS/LOCKS SQL
   pragmas, and the crash flight recorder. *)

open Helpers
module M = Imdb_obs.Metrics
module Mon = Imdb_obs.Monitor
module J = Imdb_obs.Json
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module L = Imdb_lock.Lock_manager
module Tid = Imdb_clock.Tid

(* --- the monitor itself (manual sampling, logical clock) ------------------- *)

let test_monitor_rates_deterministic () =
  let m = M.create () in
  let now = ref 0L in
  let mon = Mon.create ~clock_us:(fun () -> !now) m in
  (* 10 commits and 4096 WAL bytes in exactly one second *)
  Mon.sample mon;
  M.add m (M.counter_of M.txn_commits) 10;
  M.add m (M.counter_of M.log_bytes) 4096;
  M.add m (M.counter_of M.time_splits) 3;
  M.add m (M.counter_of M.key_splits) 2;
  M.add m (M.counter_of M.ptt_inserts) 7;
  M.add m (M.counter_of M.ptt_deletes) 4;
  now := 1_000_000L;
  Mon.sample mon;
  match Mon.rates mon with
  | None -> Alcotest.fail "two samples but no rates"
  | Some r ->
      Alcotest.(check int64) "interval" 1_000_000L r.Mon.r_interval_us;
      Alcotest.(check (float 0.001)) "txn/s" 10.0 r.Mon.r_txn_per_s;
      Alcotest.(check (float 0.001)) "wal bytes/s" 4096.0 r.Mon.r_wal_bytes_per_s;
      Alcotest.(check (float 0.001)) "splits/s (time + key)" 5.0 r.Mon.r_splits_per_s;
      Alcotest.(check int) "stamping backlog = inserts - deletes" 3
        r.Mon.r_stamping_backlog

let test_monitor_ring_bounds () =
  let m = M.create () in
  let now = ref 0L in
  let mon = Mon.create ~capacity:4 ~clock_us:(fun () -> !now) m in
  for _ = 1 to 10 do
    now := Int64.add !now 1000L;
    Mon.sample mon
  done;
  let ss = Mon.samples mon in
  Alcotest.(check int) "ring holds capacity" 4 (List.length ss);
  Alcotest.(check int) "evictions counted" 6 (Mon.dropped mon);
  Alcotest.(check (list int)) "newest survive, seq monotonic" [ 6; 7; 8; 9 ]
    (List.map (fun s -> s.Mon.s_seq) ss);
  (* the monitor's own accounting lands in the registry it samples *)
  Alcotest.(check int) "monitor.samples" 10 (M.get m M.monitor_samples);
  Alcotest.(check int) "monitor.dropped" 6 (M.get m M.monitor_dropped)

let test_monitor_null_is_inert () =
  Alcotest.(check bool) "disabled" false (Mon.enabled Mon.null);
  Mon.sample Mon.null;
  Mon.start Mon.null;
  Mon.stop Mon.null;
  Alcotest.(check int) "no samples" 0 (List.length (Mon.samples Mon.null));
  Alcotest.(check bool) "no rates" true (Mon.rates Mon.null = None);
  match Mon.to_json Mon.null with
  | J.Obj [ ("enabled", J.Bool false) ] -> ()
  | _ -> Alcotest.fail "null monitor JSON should carry only enabled:false"

let test_monitor_json_shape () =
  let m = M.create () in
  M.observe m (M.histogram_of "lat") 42;
  let now = ref 0L in
  let mon = Mon.create ~clock_us:(fun () -> !now) m in
  Mon.sample mon;
  M.add m (M.counter_of M.txn_commits) 5;
  now := 2_000_000L;
  Mon.sample mon;
  let doc = J.to_string (Mon.to_json mon) in
  match J.parse doc with
  | Error e -> Alcotest.fail ("unparseable monitor JSON: " ^ e)
  | Ok j ->
      let int_at path =
        let rec go j = function
          | [] -> J.to_int j
          | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
        in
        Option.value ~default:(-1) (go j path)
      in
      Alcotest.(check int) "two samples" 2
        (match Option.bind (J.member "samples" j) J.to_list with
        | Some l -> List.length l
        | None -> -1);
      (* 5 commits in 2 s = 2.5 txn/s = 2500 milli *)
      Alcotest.(check int) "rates in milli-units" 2500
        (int_at [ "rates"; "txn_per_s_milli" ]);
      Alcotest.(check int) "histogram percentiles present" 42
        (int_at [ "histograms"; "lat"; "p50" ])

let test_monitor_background_thread () =
  (* wall-clock territory: generous bounds only — the thread must run,
     produce samples, and stop cleanly (joined, so the process can exit) *)
  let m = M.create () in
  let mon = Mon.create ~interval_ms:5 m in
  Mon.start mon;
  Mon.start mon;
  (* idempotent *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while List.length (Mon.samples mon) < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Mon.stop mon;
  let n = List.length (Mon.samples mon) in
  Alcotest.(check bool) "sampled at least twice" true (n >= 2);
  Thread.delay 0.05;
  Alcotest.(check int) "no samples after stop" n (List.length (Mon.samples mon));
  Mon.stop mon (* stop is idempotent too *)

let test_engine_monitor_lifecycle () =
  let config = { default_config with E.monitor_interval_ms = 5 } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let mon = Db.monitor db in
  Alcotest.(check bool) "enabled by config" true (Mon.enabled mon);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while List.length (Mon.samples mon) < 2 && Unix.gettimeofday () < deadline do
    tick clock;
    ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 "x")))
  done;
  Alcotest.(check bool) "background samples landed" true
    (List.length (Mon.samples mon) >= 2);
  Db.close db;
  (* close stopped the sampler; and a default engine has the null monitor *)
  let db2, _ = fresh_db () in
  Alcotest.(check bool) "off by default" false (Mon.enabled (Db.monitor db2));
  Db.close db2

(* --- per-session statistics ------------------------------------------------ *)

let test_session_stats () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let s1 = Db.session db and s2 = Db.session db in
  (* s1: two committed writes and some reads; s2: one abort *)
  for i = 1 to 2 do
    tick clock;
    Db.Session.with_txn s1 (fun txn ->
        Db.insert_row db txn ~table:"t" (row i "a"))
  done;
  Db.Session.with_txn s1 (fun txn ->
      ignore (Db.get_row db txn ~table:"t" ~key:(Imdb_core.Schema.V_int 1));
      ignore (Db.scan_rows db txn ~table:"t"));
  let txn = Db.Session.begin_txn s2 in
  Db.insert_row db txn ~table:"t" (row 99 "doomed");
  Db.Session.abort s2 txn;
  let eng = Db.engine db in
  let find sid =
    match List.find_opt (fun ss -> ss.E.ss_id = sid) (E.session_stats_list eng) with
    | Some ss -> ss
    | None -> Alcotest.fail (Printf.sprintf "session %d missing" sid)
  in
  let st1 = find (Db.Session.id s1) and st2 = find (Db.Session.id s2) in
  Alcotest.(check int) "s1 commits" 3 st1.E.ss_commits;
  Alcotest.(check int) "s1 aborts" 0 st1.E.ss_aborts;
  Alcotest.(check int) "s1 rows written" 2 st1.E.ss_rows_written;
  (* 1 get + 2 scanned rows *)
  Alcotest.(check int) "s1 rows read" 3 st1.E.ss_rows_read;
  Alcotest.(check int) "s2 aborts" 1 st2.E.ss_aborts;
  Alcotest.(check int) "s2 commits" 0 st2.E.ss_commits;
  (* aborted work still counts as session activity *)
  Alcotest.(check int) "s2 rows written (aborted)" 1 st2.E.ss_rows_written;
  (* commit-time counters fold into the registry *)
  Alcotest.(check int) "registry rows written" 3
    (M.get (Db.metrics db) M.session_rows_written);
  (* the JSON view agrees *)
  (match J.parse (J.to_string (Db.sessions_json db)) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Option.bind (J.member "sessions" j) J.to_list with
      | Some l ->
          Alcotest.(check bool) "both sessions listed" true (List.length l >= 2)
      | None -> Alcotest.fail "sessions key missing"));
  Db.close db

(* Two sessions on two domains: [s1] holds an open transaction that
   wrote row 1 while [s2] runs [contend] on another domain and parks on
   one of its locks.  Once the dump shows [s2] parked, [s1] commits; the
   wait must be visible in [s2]'s session stats. *)
let session_lock_wait contend =
  let config = { default_config with E.lock_wait_timeout_ms = 5_000 } in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Imdb_clock.Clock.advance clock 100_000L;
  let s1 = Db.session db and s2 = Db.session db in
  Db.Session.with_txn s1 (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "a"));
  let txn1 = Db.Session.begin_txn s1 in
  Db.Session.update s1 txn1 ~table:"t"
    ~key:(Imdb_core.Schema.encode_key (Imdb_core.Schema.V_int 1))
    ~payload:"held";
  let d = Domain.spawn (fun () -> Db.Session.with_txn s2 (contend s2)) in
  let dump = await_waiters (Db.engine db).E.locks 1 in
  Alcotest.(check int) "s2 parked" 1 (List.length dump.L.d_waiters);
  ignore (Db.Session.commit s1 txn1);
  Domain.join d;
  let st2 = E.session_stats_for (Db.engine db) (Db.Session.id s2) in
  Alcotest.(check int) "s2 waited once" 1 st2.E.ss_lock_waits;
  Alcotest.(check bool) "s2 wait time recorded" true (st2.E.ss_lock_wait_us > 0);
  Db.close db

let test_session_lock_waits () =
  (* blocks on s1's record X lock until s1 commits *)
  session_lock_wait (fun s2 txn ->
      Db.Session.update s2 txn ~table:"t"
        ~key:(Imdb_core.Schema.encode_key (Imdb_core.Schema.V_int 1))
        ~payload:"contender")

let test_session_scan_lock_waits () =
  (* a serializable scan blocks on its table S lock against s1's IX *)
  session_lock_wait (fun s2 txn -> Db.Session.scan s2 txn ~table:"t" (fun _ _ -> ()))

(* --- lock dumps ------------------------------------------------------------ *)

let test_lock_dump_basic () =
  let lm = L.create () in
  let t1 = Tid.of_int 1 and t2 = Tid.of_int 2 and t3 = Tid.of_int 3 in
  let res = L.Record (1, "a") in
  ignore (L.acquire ~timeout_us:0 lm t1 res L.X);
  let spawned =
    List.map
      (fun tid ->
        Domain.spawn (fun () ->
            ignore (L.acquire ~timeout_us:5_000_000 lm tid res L.X);
            L.release_all lm tid))
      [ t2; t3 ]
  in
  (* wait until both waiters are parked and visible *)
  let d = await_waiters lm 2 in
  Alcotest.(check int) "two waiters visible" 2 (List.length d.L.d_waiters);
  Alcotest.(check bool) "t1 holds X" true
    (List.exists (fun (r, tid, m) -> r = res && Tid.equal tid t1 && m = L.X) d.L.d_holders);
  List.iter
    (fun (_, r, m, blockers) ->
      Alcotest.(check bool) "waiting on the contested record in X" true
        (r = res && m = L.X);
      Alcotest.(check bool) "blocked exactly by the holder" true
        (List.for_all (Tid.equal t1) blockers && blockers <> []))
    d.L.d_waiters;
  L.release_all lm t1;
  List.iter Domain.join spawned;
  let d = L.dump lm in
  Alcotest.(check int) "no holders left" 0 (List.length d.L.d_holders);
  Alcotest.(check int) "no waiters left" 0 (List.length d.L.d_waiters)

(* The acceptance bar: under four sessions hammering one row, every dump
   taken mid-flight is a consistent cut — each waiter edge's blocker is
   visible as a holder in the same dump. *)
let test_lock_dump_consistent_under_contention () =
  let config = { default_config with E.lock_wait_timeout_ms = 10_000 } in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  Imdb_clock.Clock.advance clock 10_000_000L;
  Db.exec db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "seed"));
  let lm = (Db.engine db).E.locks in
  let stop = Atomic.make false in
  let spawned =
    List.init 4 (fun sid ->
        Domain.spawn (fun () ->
            let s = Db.session db in
            let n = ref 0 in
            while not (Atomic.get stop) do
              incr n;
              Db.Session.with_txn s (fun txn ->
                  Db.Session.update s txn ~table:"t"
                    ~key:(Imdb_core.Schema.encode_key (Imdb_core.Schema.V_int 1))
                    ~payload:(Printf.sprintf "s%d-%d" sid !n))
            done))
  in
  let violations = ref 0 and edges_seen = ref 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Unix.gettimeofday () < deadline do
    let d = L.dump lm in
    List.iter
      (fun (_, _, _, blockers) ->
        List.iter
          (fun b ->
            incr edges_seen;
            if
              not
                (List.exists (fun (_, tid, _) -> Tid.equal tid b) d.L.d_holders)
            then incr violations)
          blockers)
      d.L.d_waiters
  done;
  Atomic.set stop true;
  List.iter Domain.join spawned;
  Alcotest.(check int) "every waiter edge's blocker held a lock in the same dump"
    0 !violations;
  Alcotest.(check bool) "contention actually observed" true (!edges_seen > 0);
  (* dump_json carries the same cut *)
  (match J.parse (J.to_string (Db.locks_json db)) with
  | Ok j ->
      Alcotest.(check bool) "locks JSON has both keys" true
        (J.member "holders" j <> None && J.member "waiters" j <> None)
  | Error e -> Alcotest.fail e);
  Db.close db

(* --- SQL pragmas ----------------------------------------------------------- *)

let test_sql_pragmas () =
  let db, clock = fresh_db () in
  let session = Imdb_sql.Executor.make_session db in
  let exec src =
    match Imdb_sql.Executor.exec_string session src with
    | [ Imdb_sql.Executor.R_ok s ] -> s
    | _ -> Alcotest.fail "expected a single R_ok"
  in
  ignore
    (Imdb_sql.Executor.exec_string session
       "CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, val VARCHAR)");
  tick clock;
  ignore (Imdb_sql.Executor.exec_string session "INSERT INTO t VALUES (1, 'x')");
  (match J.parse (exec "SESSIONS") with
  | Ok j -> (
      match Option.bind (J.member "sessions" j) J.to_list with
      | Some (_ :: _) -> ()
      | _ -> Alcotest.fail "SESSIONS listed no sessions")
  | Error e -> Alcotest.fail ("SESSIONS unparseable: " ^ e));
  (match J.parse (exec "LOCKS") with
  | Ok j ->
      Alcotest.(check bool) "LOCKS shape" true
        (J.member "holders" j <> None && J.member "waiters" j <> None)
  | Error e -> Alcotest.fail ("LOCKS unparseable: " ^ e));
  Db.close db

(* --- flight recorder -------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_flight_recorder () =
  let dir = Filename.temp_file "imdb_flight" "" in
  Sys.remove dir;
  let config =
    { default_config with E.flight_recorder_dir = Some dir; monitor_interval_ms = 50 }
  in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "x")));
  (match Db.write_flight_report db ~reason:"unit-test" with
  | None -> Alcotest.fail "flight dir configured but no report written"
  | Some path ->
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      let ic = open_in path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match J.parse body with
      | Error e -> Alcotest.fail ("flight report unparseable: " ^ e)
      | Ok j ->
          let str_at k =
            match J.member k j with Some (J.String s) -> s | _ -> "" in
          Alcotest.(check string) "reason" "unit-test" (str_at "reason");
          List.iter
            (fun k ->
              Alcotest.(check bool) ("section " ^ k) true (J.member k j <> None))
            [ "monitor"; "sessions"; "locks"; "traces"; "metrics" ];
          (* the report's monitor ring includes a sample forced at dump
             time, so it is never empty even right after open *)
          (match
             Option.bind (J.member "monitor" j) (fun m ->
                 Option.bind (J.member "samples" m) J.to_list)
           with
          | Some (_ :: _) -> ()
          | _ -> Alcotest.fail "flight report has no monitor samples")));
  (* unconfigured engines write nothing *)
  let db2, _ = fresh_db () in
  Alcotest.(check bool) "no dir, no report" true
    (Db.write_flight_report db2 ~reason:"x" = None);
  Db.close db2;
  Db.close db;
  rm_rf dir

let test_flight_recorder_on_recovery () =
  (* a crash with a loser in the log: recovery rolls it back and, with a
     flight dir configured, leaves a report behind *)
  let dir = Filename.temp_file "imdb_flightrec" "" in
  Sys.remove dir;
  let config = { default_config with E.flight_recorder_dir = Some dir } in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  let txn = Db.begin_txn db in
  Db.insert_row db txn ~table:"t" (row 2 "loser");
  (* a committed transaction flushes the log, carrying the loser's
     records into the durable tail — so recovery actually sees a loser *)
  tick clock;
  ignore (commit_write db (fun t -> Db.insert_row db t ~table:"t" (row 1 "x")));
  (* crash with the txn still open: recovery rolls it back *)
  let db = Db.crash_and_reopen ~config ~clock db in
  let reports = Sys.readdir dir in
  Alcotest.(check bool) "recovery wrote a flight report" true
    (Array.length reports >= 1);
  Alcotest.(check bool) "named by reason" true
    (Array.exists
       (fun f -> String.length f >= 15 && String.sub f 0 15 = "flight_recovery")
       reports);
  check_row db ~table:"t" ~id:2 None;
  Db.close db;
  rm_rf dir

let suite =
  [
    Alcotest.test_case "monitor rates deterministic" `Quick
      test_monitor_rates_deterministic;
    Alcotest.test_case "monitor ring bounds" `Quick test_monitor_ring_bounds;
    Alcotest.test_case "null monitor inert" `Quick test_monitor_null_is_inert;
    Alcotest.test_case "monitor JSON shape" `Quick test_monitor_json_shape;
    Alcotest.test_case "background sampler thread" `Quick test_monitor_background_thread;
    Alcotest.test_case "engine monitor lifecycle" `Quick test_engine_monitor_lifecycle;
    Alcotest.test_case "per-session stats" `Quick test_session_stats;
    Alcotest.test_case "session lock waits" `Quick test_session_lock_waits;
    Alcotest.test_case "lock dump basic" `Quick test_lock_dump_basic;
    Alcotest.test_case "lock dump consistent under contention" `Quick
      test_lock_dump_consistent_under_contention;
    Alcotest.test_case "SESSIONS/LOCKS pragmas" `Quick test_sql_pragmas;
    Alcotest.test_case "flight recorder" `Quick test_flight_recorder;
    Alcotest.test_case "flight recorder on recovery" `Quick
      test_flight_recorder_on_recovery;
    Alcotest.test_case "session scan lock waits" `Quick test_session_scan_lock_waits;
  ]
