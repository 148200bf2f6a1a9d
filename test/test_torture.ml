(* The torture harness, capped for CI: small seeded runs through every
   crash kind with full oracle verification, determinism of the whole
   report, and — crucially — the detector self-tests: a sabotaged oracle
   MUST make the run fail, or the harness is vacuous. *)

module H = Imdb_torture.Harness
module M = Imdb_torture.Model
module Ts = Imdb_clock.Timestamp

(* A small profile that still crashes a lot: ~500 commits, 12 scheduled
   crash points, full (uncapped) verification. *)
let small ?(seed = 42) ?(ops = 1200) ?(crashes = 12) ?sabotage () =
  { H.default with H.seed; ops; crashes; sabotage }

let report_of = function
  | H.Passed r -> r
  | H.Failed f -> Alcotest.failf "torture run failed: %a" H.pp_failure f

let test_small_run_passes () =
  let r = report_of (H.run (small ())) in
  Alcotest.(check int) "all ops executed" 1200 r.H.r_ops;
  Alcotest.(check bool) "committed work" true (r.H.r_commits > 100);
  Alcotest.(check bool) "crashes fired" true (r.H.r_crashes >= 8);
  Alcotest.(check bool) "recovered every crash" true (r.H.r_recoveries >= r.H.r_crashes);
  Alcotest.(check bool) "verified AS OF states" true (r.H.r_asof_checks > 500);
  Alcotest.(check bool) "verified boundaries" true (r.H.r_boundary_checks > 100);
  Alcotest.(check bool) "verified histories" true (r.H.r_history_checks > 0);
  Alcotest.(check bool) "time splits happened" true (r.H.r_time_splits > 0)

let test_determinism () =
  let a = report_of (H.run (small ~seed:7 ~ops:600 ~crashes:6 ())) in
  let b = report_of (H.run (small ~seed:7 ~ops:600 ~crashes:6 ())) in
  Alcotest.(check bool) "identical reports" true (a = b);
  let c = report_of (H.run (small ~seed:8 ~ops:600 ~crashes:6 ())) in
  Alcotest.(check bool) "different seed, different history" true (a.H.r_commits <> c.H.r_commits || a.H.r_crashes <> c.H.r_crashes || a.H.r_asof_checks <> c.H.r_asof_checks)

let test_crash_kind_coverage () =
  (* enough crash points that every kind appears in the schedule, and the
     run fires at least one of each of the targeted kinds *)
  let cfg = small ~seed:3 ~ops:2500 ~crashes:15 () in
  let sched = H.schedule_of cfg in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (H.crash_kind_name k ^ " scheduled")
        true
        (List.exists (fun cp -> cp.H.cp_kind = k) sched))
    H.all_crash_kinds;
  let r = report_of (H.run cfg) in
  List.iter
    (fun (k, n) ->
      Alcotest.(check bool) (k ^ " fired") true (n > 0))
    r.H.r_crash_kinds;
  Alcotest.(check int) "every wal-tail crash dropped a volatile record of an open txn"
    (List.assoc "wal-tail" r.H.r_crash_kinds)
    r.H.r_volatile_drops;
  Alcotest.(check bool) "some crashes tore the failing write" true (r.H.r_torn > 0);
  Alcotest.(check bool) "double recovery exercised" true (r.H.r_double_recoveries > 0)

(* A sessions run schedules every kind, and the report counts exactly
   the points the schedule placed within the run's commits (as in a
   serial run, a point past the last commit never fires). *)
let test_concurrent_schedule_truthful () =
  let cfg =
    { H.default with H.seed = 7; ops = 600; crashes = 6; keys_per_table = 32; sessions = 2 }
  in
  let sched = H.schedule_of cfg in
  Alcotest.(check int) "six points" 6 (List.length sched);
  Alcotest.(check int) "six kinds" 6
    (List.length (List.sort_uniq compare (List.map (fun cp -> cp.H.cp_kind) sched)));
  let r = report_of (H.run cfg) in
  let reached = List.filter (fun cp -> cp.H.cp_commit <= r.H.r_commits) sched in
  Alcotest.(check bool) "most points reached" true (List.length reached >= 4);
  let scheduled k = List.length (List.filter (fun cp -> cp.H.cp_kind = k) reached) in
  Alcotest.(check (list (pair string int)))
    "fired = scheduled, per kind"
    (List.map (fun k -> (H.crash_kind_name k, scheduled k)) H.all_crash_kinds)
    r.H.r_crash_kinds

(* Sessions run as seeded fibers, so a sessions run replays from its
   seed: the same report and the same action trace, interleaving and
   crashes included.  Both runs are shared by the two cases below. *)
let sessions_runs =
  lazy
    (let run () =
       let trace = ref [] in
       let cfg =
         { H.default with H.seed = 7; ops = 1500; crashes = 14; sessions = 3;
           log = Some (fun line -> trace := line :: !trace) }
       in
       let r = report_of (H.run cfg) in
       (r, List.rev !trace)
     in
     let a = run () in
     (a, run ()))

let test_sessions_replay () =
  let (ra, ta), (rb, tb) = Lazy.force sessions_runs in
  Alcotest.(check bool) "identical reports" true (ra = rb);
  Alcotest.(check (list string)) "identical action traces" ta tb;
  Alcotest.(check bool) "sessions interleaved" true
    (List.exists (fun l -> String.length l > 3 && String.sub l 0 3 = "s2 ") ta)

let test_sessions_crash_kinds () =
  let (r, _), _ = Lazy.force sessions_runs in
  List.iter (fun (k, n) -> Alcotest.(check bool) (k ^ " fired") true (n > 0)) r.H.r_crash_kinds

let expect_failure what cfg =
  match H.run cfg with
  | H.Passed _ -> Alcotest.failf "%s: sabotaged run passed — the oracle is not looking" what
  | H.Failed f ->
      Alcotest.(check bool) (what ^ ": failure names the seed") true (f.H.f_seed = cfg.H.seed);
      f

let test_bulk_run_passes () =
  (* bulk mode: ~1 in 12 transactions is a 16-48-upsert bulk insert, so
     ingest-buffer flushes happen mid-transaction and crashes (including
     the buffer-write kind) land on half-flushed buffers *)
  (* bulk transactions burn the op budget 10x faster than the 1-4-write
     mix, so commits (which pace the crash schedule) accrue more slowly:
     fewer of the scheduled points are reached than in the plain profile *)
  let cfg = { (small ~seed:5 ~ops:4000 ~crashes:20 ()) with H.bulk = true } in
  let r = report_of (H.run cfg) in
  Alcotest.(check int) "all ops executed" 4000 r.H.r_ops;
  Alcotest.(check bool) "crashes fired" true (r.H.r_crashes >= 6);
  Alcotest.(check bool) "buffer-write crashes fired" true
    (match List.assoc_opt "buffer-write" r.H.r_crash_kinds with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check bool) "verified AS OF states" true (r.H.r_asof_checks > 500)

let test_sabotage_skew_stamp_caught () =
  (* record every 7th commit one timestamp early in the oracle: exactly
     what an engine stamping bug would look like.  Must be detected. *)
  let f =
    expect_failure "skew-stamp"
      (small ~seed:11 ~ops:600 ~crashes:4 ~sabotage:(H.Skew_stamp 7) ())
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "diagnosis points at an AS OF state" true
    (contains f.H.f_msg "AS OF")

let test_sabotage_drop_write_caught () =
  let f =
    expect_failure "drop-write"
      (small ~seed:12 ~ops:600 ~crashes:4 ~sabotage:(H.Drop_write 9) ())
  in
  Alcotest.(check bool) "failure carries a trace" true (f.H.f_trace <> [])

(* The printed replay line runs the same workload: a bulk sessions run
   names both flags, a plain run neither. *)
let test_replay_line_names_the_workload () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let printed cfg = Format.asprintf "%a" H.pp_failure (expect_failure "replay line" cfg) in
  let sabotaged = small ~seed:12 ~ops:400 ~crashes:2 ~sabotage:(H.Drop_write 9) () in
  let line = printed { sabotaged with H.bulk = true; sessions = 3 } in
  Alcotest.(check bool) "names --bulk and --sessions 3" true
    (contains line "imdb torture --seed 12 --ops 400 --crashes 2 --bulk --sessions 3 --replay");
  let line = printed sabotaged in
  Alcotest.(check bool) "a serial run names neither" true
    (contains line "imdb torture --seed 12 --ops 400 --crashes 2 --replay")

let test_minimize_shrinks () =
  let cfg = small ~seed:13 ~ops:900 ~crashes:8 ~sabotage:(H.Drop_write 11) () in
  let f = expect_failure "minimize input" cfg in
  let cfg', f' = H.minimize cfg f in
  Alcotest.(check bool) "still failing" true (f'.H.f_msg <> "");
  Alcotest.(check bool) "op budget shrank or held" true (cfg'.H.ops <= cfg.H.ops);
  Alcotest.(check bool) "crash points shrank or held" true (cfg'.H.crashes <= cfg.H.crashes);
  (* the minimized config is whole: run again from its own fields — what
     its replay line names — it fails the same way *)
  let again = expect_failure "minimized config, run again" cfg' in
  Alcotest.(check int) "same failing op" f'.H.f_op again.H.f_op;
  Alcotest.(check string) "same diagnosis" f'.H.f_msg again.H.f_msg;
  Alcotest.(check string) "same replay line" f'.H.f_replay again.H.f_replay

let test_replay_from_seed () =
  (* a failing seed replays to the same failing op and message *)
  let cfg = small ~seed:21 ~ops:500 ~crashes:4 ~sabotage:(H.Skew_stamp 5) () in
  let f1 = expect_failure "replay a" cfg in
  let f2 = expect_failure "replay b" cfg in
  Alcotest.(check int) "same failing op" f1.H.f_op f2.H.f_op;
  Alcotest.(check string) "same diagnosis" f1.H.f_msg f2.H.f_msg

(* --- the fiber scheduler ---------------------------------------------------- *)

(* Under the fiber scheduler a lock wait is a park with a deadline in
   virtual time: with both sessions parked — the holder until the
   waiter gives up, the waiter on the holder's X lock — the clock jumps
   to the deadline, so the waiter is the timeout victim at exactly 2000
   virtual ms, with no ticker thread and no real waiting. *)
let test_lock_timeout_virtual_time () =
  let module Db = Imdb_core.Db in
  let module E = Imdb_core.Engine in
  let module Park = Imdb_util.Park in
  let config = { E.default_config with E.lock_wait_timeout_ms = 2_000 } in
  let db = Db.open_memory ~config ~clock:(Imdb_clock.Clock.create_logical ()) () in
  let schema =
    Imdb_core.Schema.make
      [
        { Imdb_core.Schema.col_name = "k"; col_type = Imdb_core.Schema.T_string };
        { Imdb_core.Schema.col_name = "v"; col_type = Imdb_core.Schema.T_string };
      ]
  in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  Db.exec db (fun txn -> Db.insert db txn ~table:"t" ~key:"k" ~payload:"v0");
  let spot = Park.spot () in
  let locked = ref false and gave_up = ref false and victim_at = ref (-1) in
  let park_until flag = Park.protect spot (fun () -> Park.wait spot (fun () -> !flag)) in
  let tickers = Park.tickers_started () in
  let wall = Unix.gettimeofday () in
  Imdb_torture.Fibers.run ~rng:(Imdb_util.Rng.create 1)
    [|
      (fun () ->
        let s = Db.session db in
        let txn = Db.Session.begin_txn s in
        Db.Session.update s txn ~table:"t" ~key:"k" ~payload:"holder";
        locked := true;
        park_until gave_up;
        ignore (Db.Session.commit s txn));
      (fun () ->
        park_until locked;
        let s = Db.session db in
        let txn = Db.Session.begin_txn s in
        (match Db.Session.update s txn ~table:"t" ~key:"k" ~payload:"waiter" with
        | () -> Alcotest.fail "granted over the holder's X lock"
        | exception E.Deadlock_abort _ -> victim_at := Park.now_us ());
        (try Db.Session.abort s txn with E.Txn_finished -> ());
        gave_up := true);
    |];
  let wall = Unix.gettimeofday () -. wall in
  Alcotest.(check int) "victim at virtual 2000 ms" 2_000_000 !victim_at;
  Alcotest.(check int) "a timeout, not a deadlock" 1
    (Imdb_obs.Metrics.get (Db.engine db).E.metrics Imdb_obs.Metrics.lock_timeouts);
  Alcotest.(check int) "no ticker thread" tickers (Park.tickers_started ());
  Alcotest.(check bool) "well under 100 ms of wall time" true (wall < 0.1);
  Alcotest.(check (option string)) "the holder committed" (Some "holder")
    (Db.exec db (fun txn -> Db.get db txn ~table:"t" ~key:"k"));
  Db.close db

(* --- the oracle itself ---------------------------------------------------- *)

let ts n = Ts.make ~ttime:(Int64.of_int (1000 + (20 * n))) ~sn:0

let test_model_basics () =
  let m = M.create ~tables:[ "t" ] in
  M.record m ~ts:(ts 1) ~tag:1 [ { M.w_table = "t"; w_key = "a"; w_value = Some "1" } ];
  M.record m ~ts:(ts 2) ~tag:2
    [
      { M.w_table = "t"; w_key = "b"; w_value = Some "2" };
      { M.w_table = "t"; w_key = "a"; w_value = Some "1b" };
    ];
  M.record m ~ts:(ts 3) ~tag:3 [ { M.w_table = "t"; w_key = "a"; w_value = None } ];
  Alcotest.(check int) "commit count" 3 (M.commit_count m);
  Alcotest.(check (list (pair string string))) "current" [ ("b", "2") ] (M.current_state m ~table:"t");
  Alcotest.(check (list (pair string string))) "as of 1" [ ("a", "1") ] (M.state_at m ~table:"t" (ts 1));
  Alcotest.(check (list (pair string string))) "as of 2"
    [ ("a", "1b"); ("b", "2") ]
    (M.state_at m ~table:"t" (ts 2));
  Alcotest.(check bool) "mem after delete" false (M.mem m ~table:"t" ~key:"a");
  let h = M.histories m ~table:"t" in
  Alcotest.(check int) "a has 3 versions" 3 (List.length (Hashtbl.find h "a"));
  (match Hashtbl.find h "a" with
  | (t3, None) :: (t2, Some "1b") :: (t1, Some "1") :: [] ->
      Alcotest.(check bool) "newest first" true
        (Ts.compare t3 t2 > 0 && Ts.compare t2 t1 > 0)
  | _ -> Alcotest.fail "unexpected history shape")

let test_model_iter_states_matches_state_at () =
  let m = M.create ~tables:[ "t" ] in
  let rng = Imdb_util.Rng.create 99 in
  for i = 1 to 200 do
    let key = Printf.sprintf "k%d" (Imdb_util.Rng.int rng 12) in
    let w =
      if Imdb_util.Rng.int rng 4 = 0 && M.mem m ~table:"t" ~key then
        { M.w_table = "t"; w_key = key; w_value = None }
      else { M.w_table = "t"; w_key = key; w_value = Some (string_of_int i) }
    in
    M.record m ~ts:(ts i) ~tag:i [ w ]
  done;
  M.iter_states m ~table:"t" ~f:(fun ~ts ~tag:_ ~state ->
      Alcotest.(check (list (pair string string)))
        ("sweep agrees with state_at at " ^ Ts.to_string ts)
        (M.state_at m ~table:"t" ts)
        state)

let suite =
  [
    Alcotest.test_case "model: record/state/history" `Quick test_model_basics;
    Alcotest.test_case "model: iter_states = state_at" `Quick test_model_iter_states_matches_state_at;
    Alcotest.test_case "lock timeout in virtual time" `Quick test_lock_timeout_virtual_time;
    Alcotest.test_case "small torture run passes" `Slow test_small_run_passes;
    Alcotest.test_case "runs are deterministic by seed" `Slow test_determinism;
    Alcotest.test_case "every crash kind fires" `Slow test_crash_kind_coverage;
    Alcotest.test_case "concurrent schedule = crashes fired" `Slow
      test_concurrent_schedule_truthful;
    Alcotest.test_case "sessions runs replay from the seed" `Slow test_sessions_replay;
    Alcotest.test_case "sessions runs fire every crash kind" `Slow test_sessions_crash_kinds;
    Alcotest.test_case "bulk-insert mix passes" `Slow test_bulk_run_passes;
    Alcotest.test_case "sabotage: skewed stamp is caught" `Slow test_sabotage_skew_stamp_caught;
    Alcotest.test_case "sabotage: dropped write is caught" `Slow test_sabotage_drop_write_caught;
    Alcotest.test_case "minimize shrinks a failing run" `Slow test_minimize_shrinks;
    Alcotest.test_case "replay line names the workload" `Quick
      test_replay_line_names_the_workload;
    Alcotest.test_case "failures replay identically from the seed" `Slow test_replay_from_seed;
  ]
