(* Instrumentation-overhead experiment (Ext K): the same deterministic
   workload with tracing off / sampled / full and with the continuous
   monitor off / at 100 ms / at 10 ms, proving the "cheap when off"
   contract of lib/obs (tracer and monitor) in one gate.

   Wall times are printed for the operator (disabled must sit within
   noise of the uninstrumented hot path), but BENCH_obsov.json carries
   only deterministic quantities: the per-mode trace.* counts and two
   verdicts, [tracing_counters_identical] and [monitor_counters_identical],
   certifying that neither instrument changed anything the engine itself
   counts — commits, log flushes, stamps, splits are the same in every
   mode.  The instruments' own counters (the trace. family, and the
   wall-clock driven monitor. family) are excluded from the comparison. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module S = Imdb_core.Schema

let schema =
  S.make
    [
      { S.col_name = "id"; col_type = S.T_int };
      { S.col_name = "val"; col_type = S.T_string };
    ]

let row i v = [ S.V_int i; S.V_string v ]

let has_prefix p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* One workload run: update-heavy traffic over a small key set (commits,
   lazy stamping, time splits), then an AS OF scan and a checkpoint
   (PTT GC) — every traced subsystem fires while the sampler thread
   (when on) snapshots the registry behind the workload's back. *)
let run_mode ~scale ~sampling ~interval_ms =
  let txns = Harness.scaled ~scale 6000 in
  let keys = 64 in
  let config =
    {
      E.default_config with
      E.trace_sampling = sampling;
      monitor_interval_ms = interval_ms;
      auto_checkpoint_every = 0;
    }
  in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let elapsed, () =
    Harness.time_it (fun () ->
        for i = 1 to txns do
          Imdb_clock.Clock.advance clock 20L;
          Db.exec db (fun txn ->
              Db.upsert_row db txn ~table:"t"
                (row (i mod keys) (Printf.sprintf "v%08d" i)))
        done;
        Imdb_clock.Clock.advance clock 20L;
        let ts = Imdb_clock.Clock.last_issued (Db.engine db).E.clock in
        Db.exec db (fun txn ->
            ignore (Db.scan_rows_as_of db txn ~table:"t" ~ts));
        Db.checkpoint db)
  in
  let m = Db.metrics db in
  let g = M.get m in
  let trace =
    [
      ("trace_spans", g M.trace_spans);
      ("trace_dropped", g M.trace_drops);
      ("trace_slow_ops", g M.trace_slow_ops);
    ]
  in
  let samples = g M.monitor_samples in
  (* everything the engine counts, minus the instruments' own counters:
     this must be invariant across modes *)
  let engine_snapshot =
    List.filter
      (fun (name, _) -> not (has_prefix "trace." name || has_prefix "monitor." name))
      (M.snapshot m)
  in
  Db.close db;
  (elapsed, txns, trace, samples, engine_snapshot)

(* (name, trace sampling, monitor interval ms); "off" is the reference *)
let tracing_modes = [ ("trace-sampled", 8, 0); ("trace-full", 1, 0) ]
let monitor_modes = [ ("monitor-100ms", 0, 100); ("monitor-10ms", 0, 10) ]

let run ~scale =
  let results =
    List.map
      (fun (name, sampling, interval_ms) ->
        (name, sampling, interval_ms, run_mode ~scale ~sampling ~interval_ms))
      ((("off", 0, 0) :: tracing_modes) @ monitor_modes)
  in
  let snapshot name =
    let _, _, _, (_, _, _, _, snap) = List.find (fun (n, _, _, _) -> n = name) results in
    snap
  in
  let base_s, off_snap =
    match results with
    | (_, _, _, (s, _, _, _, snap)) :: _ -> (s, snap)
    | [] -> (0.0, [])
  in
  Harness.print_table
    ~title:"obsov: instrumentation overhead (same workload; off is the contract)"
    ~header:
      [ "mode"; "sampling"; "interval ms"; "wall ms"; "vs off"; "spans"; "dropped"; "slow"; "samples" ]
    (List.map
       (fun (name, sampling, interval_ms, (s, _, trace, samples, _)) ->
         [
           name;
           string_of_int sampling;
           string_of_int interval_ms;
           Harness.ms s;
           Harness.pct s base_s;
           string_of_int (List.assoc "trace_spans" trace);
           string_of_int (List.assoc "trace_dropped" trace);
           string_of_int (List.assoc "trace_slow_ops" trace);
           string_of_int samples;
         ])
       results);
  let identical modes =
    List.for_all (fun (name, _, _) -> snapshot name = off_snap) modes
  in
  let tracing_identical = identical tracing_modes in
  let monitor_identical = identical monitor_modes in
  if not tracing_identical then Fmt.pr "WARNING: tracing perturbed engine counters@.";
  if not monitor_identical then Fmt.pr "WARNING: the monitor perturbed engine counters@.";
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"obsov"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ( "modes",
           J.List
             (List.map
                (fun (name, sampling, interval_ms, (_, txns, trace, _, _)) ->
                  J.Obj
                    ([
                       ("mode", J.String name);
                       ("sampling", J.Int sampling);
                       ("interval_ms", J.Int interval_ms);
                       ("txns", J.Int txns);
                     ]
                    @ List.map (fun (k, v) -> (k, J.Int v)) trace))
                results) );
         ("tracing_counters_identical", J.Bool tracing_identical);
         ("monitor_counters_identical", J.Bool monitor_identical);
       ])

let () =
  Harness.register ~name:"obsov"
    ~doc:"instrumentation overhead: tracing off/sampled/full, monitor off/100ms/10ms" run
