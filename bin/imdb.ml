(* imdb — command-line front end to the Immortal DB engine.

   Subcommands:
     imdb sql DIR [-e STATEMENTS] [-f FILE]   run SQL (or a REPL on a tty)
     imdb tables DIR                          list tables
     imdb history DIR TABLE KEY               show a record's version history
     imdb workload DIR [-n N] [--objects K]   load a moving-objects stream
     imdb load DIR [-n N] [--batch B]         bulk-load rows via buffered ingestion
     imdb stats DIR [--json|--prom|--watch N] storage statistics / metrics JSON
     imdb locks DIR                           lock holders + wait-for graph
     imdb monitor DIR [--watch N]             live rates from the continuous monitor
     imdb trace DIR [--chrome] [-o FILE]      trace a workload, export spans
     imdb checkpoint DIR                      force a checkpoint (and PTT GC)
     imdb backup DIR DEST [--as-of TS]        extract a queryable AS OF backup
     imdb vacuum DIR                          force timestamping to completion
     imdb torture [--seed N]... [--ops N] [--crashes N] [--bulk]
                  [--sessions N] [--replay] [--flight-dir DIR]
                                              adversarial crash-recovery torture

   DIR is a database directory (created on first use). *)

open Cmdliner
module Db = Imdb_core.Db
module S = Imdb_core.Schema
module E = Imdb_core.Engine
module Ts = Imdb_clock.Timestamp

let with_db ?config dir f =
  let db = Db.open_dir ?config dir in
  Fun.protect ~finally:(fun () -> Db.close db) (fun () -> f db)

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

(* --- sql ----------------------------------------------------------------- *)

(* Print each statement's result as it runs; an expected error prints
   its message and ends the script.  Returns whether every statement ran. *)
let run_sql db src =
  let session = Imdb_sql.Executor.make_session db in
  match
    Imdb_sql.Executor.exec_iter session src (fun r ->
        Fmt.pr "%a@." Imdb_sql.Executor.pp_result r)
  with
  | () -> true
  | exception e -> (
      match Imdb_sql.Executor.error_message e with
      | Some msg ->
          Fmt.epr "error: %s@." msg;
          false
      | None -> raise e)

let repl db =
  let session = Imdb_sql.Executor.make_session db in
  Fmt.pr "Immortal DB. Statements end with ';'. Ctrl-D to quit.@.";
  let buf = Buffer.create 256 in
  (try
     while true do
       Fmt.pr (if Buffer.length buf = 0 then "imdb> " else "  ... ");
       Fmt.flush Fmt.stdout ();
       let line = input_line stdin in
       Buffer.add_string buf line;
       Buffer.add_char buf '\n';
       if String.contains line ';' then begin
         let src = Buffer.contents buf in
         Buffer.clear buf;
         try
           Imdb_sql.Executor.exec_iter session src (fun r ->
               Fmt.pr "%a@." Imdb_sql.Executor.pp_result r)
         with e ->
           Fmt.pr "error: %s@."
             (match Imdb_sql.Executor.error_message e with
             | Some msg -> msg
             | None -> Printexc.to_string e)
       end
     done
   with End_of_file -> ());
  Fmt.pr "@.";
  true

let sql_cmd =
  let exec =
    Arg.(value & opt (some string) None & info [ "e" ] ~docv:"SQL" ~doc:"Statements to execute.")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "f" ] ~docv:"FILE" ~doc:"Script file to execute.")
  in
  let run dir exec file =
    let ok =
      with_db dir (fun db ->
          match (exec, file) with
          | Some src, _ -> run_sql db src
          | None, Some path ->
              let ic = open_in path in
              let n = in_channel_length ic in
              let src = really_input_string ic n in
              close_in ic;
              run_sql db src
          | None, None -> repl db)
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "sql" ~doc:"Run SQL statements (or an interactive session).")
    Term.(const run $ dir_arg $ exec $ file)

(* --- tables ---------------------------------------------------------------- *)

let tables_cmd =
  let run dir =
    with_db dir (fun db ->
        List.iter
          (fun ti ->
            Fmt.pr "%-20s %-12s %a@." ti.Imdb_core.Catalog.ti_name
              (Fmt.str "%a" Imdb_core.Catalog.pp_mode ti.Imdb_core.Catalog.ti_mode)
              S.pp ti.Imdb_core.Catalog.ti_schema)
          (Db.list_tables db))
  in
  Cmd.v (Cmd.info "tables" ~doc:"List tables.") Term.(const run $ dir_arg)

(* --- history ---------------------------------------------------------------- *)

let history_cmd =
  let table_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TABLE" ~doc:"Table name.")
  in
  let key_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"KEY"
           ~doc:"Primary key (integer or string).")
  in
  let run dir table key =
    with_db dir (fun db ->
        let key =
          match int_of_string_opt key with
          | Some i -> S.V_int i
          | None -> S.V_string key
        in
        Db.exec db (fun txn ->
            List.iter
              (fun (ts, row) ->
                match row with
                | Some r -> Fmt.pr "%a  %a@." Ts.pp ts (Fmt.Dump.list S.pp_value) r
                | None -> Fmt.pr "%a  (deleted)@." Ts.pp ts)
              (Db.history_rows db txn ~table ~key)))
  in
  Cmd.v (Cmd.info "history" ~doc:"Show a record's version history.")
    Term.(const run $ dir_arg $ table_arg $ key_arg)

(* --- workload --------------------------------------------------------------- *)

let workload_cmd =
  let total =
    Arg.(value & opt int 10000 & info [ "n" ] ~docv:"N" ~doc:"Total transactions.")
  in
  let objects =
    Arg.(value & opt int 500 & info [ "objects" ] ~docv:"K" ~doc:"Number of moving objects.")
  in
  let run dir total objects =
    with_db dir (fun db ->
        (match Db.list_tables db |> List.find_opt (fun ti -> ti.Imdb_core.Catalog.ti_name = "MovingObjects") with
        | Some _ -> ()
        | None ->
            Db.create_table db ~name:"MovingObjects" ~mode:Db.Immortal
              ~schema:Imdb_workload.Driver.moving_objects_schema);
        let events = Imdb_workload.Moving_objects.generate ~inserts:objects ~total () in
        let r = Imdb_workload.Driver.run_events db ~table:"MovingObjects" events in
        Fmt.pr "loaded %d transactions in %.2fs (%.1f us/txn)@."
          r.Imdb_workload.Driver.rr_events r.Imdb_workload.Driver.rr_elapsed_s
          (r.Imdb_workload.Driver.rr_elapsed_s /. float_of_int total *. 1e6))
  in
  Cmd.v (Cmd.info "workload" ~doc:"Load a moving-objects workload.")
    Term.(const run $ dir_arg $ total $ objects)

module M = Imdb_obs.Metrics
module J = Imdb_obs.Json

let h_page_utilization_pct = M.histogram_of M.h_page_utilization_pct

(* --- load ------------------------------------------------------------------- *)

(* Bulk load through the write-optimized ingestion path: N seeded rows in
   batched transactions, each row one O(1) message append, applied by
   batch flushes. *)
let load_cmd =
  let total =
    Arg.(value & opt int 100_000 & info [ "n" ] ~docv:"N" ~doc:"Rows to load.")
  in
  let table =
    Arg.(value & opt string "Loaded" & info [ "table" ] ~docv:"TABLE"
           ~doc:"Target table (created as an immortal table if absent).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Key-stream seed.")
  in
  let batch =
    Arg.(value & opt int 500 & info [ "batch" ] ~docv:"B" ~doc:"Rows per transaction.")
  in
  let run dir total table seed batch =
    with_db dir (fun db ->
        let schema =
          S.make
            [
              { S.col_name = "id"; col_type = S.T_int };
              { S.col_name = "payload"; col_type = S.T_string };
            ]
        in
        (match
           Db.list_tables db
           |> List.find_opt (fun ti -> ti.Imdb_core.Catalog.ti_name = table)
         with
        | Some _ -> ()
        | None -> Db.create_table db ~name:table ~mode:Db.Immortal ~schema);
        let rng = Imdb_util.Rng.create seed in
        let batch = max 1 batch in
        let before = M.snapshot (Db.metrics db) in
        let t0 = Unix.gettimeofday () in
        let i = ref 0 in
        while !i < total do
          Db.exec db (fun txn ->
              for _ = 1 to min batch (total - !i) do
                (* a seeded bulk stream: mostly ascending keys (the shape
                   ingest buffering batches best), with one row in ten
                   revisiting a seeded earlier key so version chains grow *)
                let key =
                  if !i > 0 && Imdb_util.Rng.int rng 10 = 0 then
                    Imdb_util.Rng.int rng !i
                  else !i
                in
                Db.upsert_row db txn ~table
                  [ S.V_int key; S.V_string (Printf.sprintf "r%d.%d" seed !i) ];
                incr i
              done)
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        let diff = M.diff ~before ~after:(M.snapshot (Db.metrics db)) in
        let d name = Option.value (List.assoc_opt name diff) ~default:0 in
        Fmt.pr "loaded %d rows into %s in %.2fs (%.0f rows/s)@." total table elapsed
          (float_of_int total /. elapsed);
        Fmt.pr "ingest: appends=%d flushes=%d flush-page-visits=%d time-splits=%d@."
          (d M.ingest_appends) (d M.ingest_flushes) (d M.ingest_flush_pages)
          (d M.time_splits))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Bulk-load seeded rows through the write-optimized ingestion path.")
    Term.(const run $ dir_arg $ total $ table $ seed $ batch)

(* --- stats ------------------------------------------------------------------ *)

(* Walk every immortal table's current pages, feeding the
   page.utilization_pct histogram of the engine's registry on the way, and
   return (table, current-page-count) pairs. *)
let survey_tables db =
  let eng = Db.engine db in
  let m = Db.metrics db in
  List.filter_map
    (fun ti ->
      if ti.Imdb_core.Catalog.ti_mode <> Imdb_core.Catalog.Immortal then None
      else begin
        let ranges = Imdb_core.Table.router_ranges eng ti in
        List.iter
          (fun (_, _, pid) ->
            Imdb_buffer.Buffer_pool.with_page eng.E.pool pid (fun fr ->
                let page = Imdb_buffer.Buffer_pool.bytes fr in
                let size = Bytes.length page in
                let used = size - Imdb_storage.Page.free_space page in
                M.observe m h_page_utilization_pct (used * 100 / size)))
          ranges;
        Some (ti, List.length ranges)
      end)
    (Db.list_tables db)

(* The stable document behind `imdb stats DIR --json` (stats_schema_version 1):

   { "stats_schema_version": 1,
     "storage": { "pages_hwm": n, "page_size": n, "tables": n,
                  "ptt_entries": n,
                  "immortal_tables": [ { "name": s, "current_pages": n }, ... ] },
     "metrics": <Metrics.to_json>,
     "traces": <Tracer.to_json> }          -- only with --traces

   Two versioning namespaces meet here: [stats_schema_version] covers this
   wrapper document's shape, while the metrics sub-document carries its own
   [schema_version] ({!Imdb_obs.Metrics.schema_version}) for the registry
   key set.  They advance independently.

   The metrics sub-document always carries the page.utilization_pct
   histogram (populated by the survey above), so p50/p99 are available. *)
let stats_json ?(traces = false) db =
  let eng = Db.engine db in
  M.ensure_histogram (Db.metrics db) h_page_utilization_pct;
  let tables = survey_tables db in
  let traces_field =
    if traces then [ ("traces", Imdb_obs.Tracer.to_json (Db.tracer db)) ] else []
  in
  J.Obj
    ([
      ("stats_schema_version", J.Int 1);
      ( "storage",
        J.Obj
          [
            ("pages_hwm", J.Int eng.E.meta.Imdb_core.Meta.hwm);
            ("page_size", J.Int eng.E.config.E.page_size);
            ("tables", J.Int (List.length (Db.list_tables db)));
            ("ptt_entries", J.Int (Imdb_tstamp.Ptt.count (E.ptt_exn eng)));
            ( "immortal_tables",
              J.List
                (List.map
                   (fun (ti, pages) ->
                     J.Obj
                       [
                         ("name", J.String ti.Imdb_core.Catalog.ti_name);
                         ("current_pages", J.Int pages);
                       ])
                   tables) );
          ] );
      ("metrics", M.to_json (Db.metrics db));
    ]
    @ traces_field)

(* --watch: re-poll the registry every N seconds, printing each counter's
   cumulative value next to its per-interval delta.  Within one process
   the deltas show the engine's background work (stamping, checkpoints);
   pointed at a live workload run they show its rates. *)
let stats_watch db secs =
  let m = Db.metrics db in
  let prev = ref (M.snapshot m) in
  while true do
    Unix.sleepf (float_of_int (max 1 secs));
    let now = M.snapshot m in
    let deltas = M.diff ~before:!prev ~after:now in
    prev := now;
    let tm = Unix.localtime (Unix.gettimeofday ()) in
    Fmt.pr "--- %02d:%02d:%02d (interval %ds)@." tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec (max 1 secs);
    List.iter
      (fun (name, total) ->
        let d = Option.value (List.assoc_opt name deltas) ~default:0 in
        if d <> 0 then Fmt.pr "  %-32s %10d  (+%d)@." name total d)
      now;
    Fmt.flush Fmt.stdout ()
  done

let stats_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON (stats_schema_version 1).")
  in
  let traces_flag =
    Arg.(value & flag
         & info [ "traces" ]
             ~doc:"Include the retained trace spans in the JSON (opens the \
                   database with tracing enabled, so the open itself — \
                   recovery, checkpoint — is traced).  Implies --json.")
  in
  let prom_flag =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the metrics registry in Prometheus text exposition \
                   format (counters, gauges, histogram quantile summaries).")
  in
  let watch_arg =
    Arg.(value & opt (some int) None
         & info [ "watch" ] ~docv:"SECS"
             ~doc:"Re-poll every SECS seconds, printing cumulative counters \
                   with per-interval deltas, until interrupted.")
  in
  let run dir json traces prom watch =
    let config =
      if traces then { E.default_config with E.trace_sampling = 1 }
      else E.default_config
    in
    with_db ~config dir (fun db ->
        match watch with
        | Some secs -> stats_watch db secs
        | None ->
        if prom then begin
          M.ensure_histogram (Db.metrics db) h_page_utilization_pct;
          ignore (survey_tables db);
          print_string (M.to_prometheus (Db.metrics db))
        end
        else if json || traces then Fmt.pr "%s@." (J.to_string (stats_json ~traces db))
        else begin
          let eng = Db.engine db in
          Fmt.pr "pages allocated (high-water):  %d@." eng.E.meta.Imdb_core.Meta.hwm;
          Fmt.pr "tables:                        %d@." (List.length (Db.list_tables db));
          Fmt.pr "PTT entries:                   %d@."
            (Imdb_tstamp.Ptt.count (E.ptt_exn eng));
          (match Imdb_tstamp.Ptt.min_tid (E.ptt_exn eng) with
          | Some tid -> Fmt.pr "oldest PTT entry:              %a@." Imdb_clock.Tid.pp tid
          | None -> ());
          List.iter
            (fun (ti, pages) ->
              Fmt.pr "table %s: %d current pages@." ti.Imdb_core.Catalog.ti_name pages)
            (survey_tables db);
          match M.histogram (Db.metrics db) M.h_page_utilization_pct with
          | Some h ->
              Fmt.pr "page utilization %%:            p50=%d p99=%d max=%d@." h.M.h_p50
                h.M.h_p99 h.M.h_max
          | None -> ()
        end)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show storage statistics.")
    Term.(const run $ dir_arg $ json_flag $ traces_flag $ prom_flag $ watch_arg)

(* --- locks ------------------------------------------------------------------ *)

let locks_cmd =
  let run dir =
    with_db dir (fun db -> Fmt.pr "%s@." (J.to_string (Db.locks_json db)))
  in
  Cmd.v
    (Cmd.info "locks"
       ~doc:"Dump the lock manager: current holders and the live wait-for \
             graph, as one consistent cut.")
    Term.(const run $ dir_arg)

(* --- monitor ---------------------------------------------------------------- *)

let monitor_cmd =
  let interval =
    Arg.(value & opt int 1000
         & info [ "interval" ] ~docv:"MS" ~doc:"Monitor sampling interval in milliseconds.")
  in
  let watch =
    Arg.(value & opt int 2
         & info [ "watch" ] ~docv:"SECS" ~doc:"Refresh the live view every SECS seconds.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"K" ~doc:"Stop after K refreshes (0: until interrupted).")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Take one sample, emit the monitor ring (samples, rates, \
                   histogram percentiles) as JSON, and exit.")
  in
  let run dir interval watch count json =
    let config = { E.default_config with E.monitor_interval_ms = max 1 interval } in
    with_db ~config dir (fun db ->
        let mon = Db.monitor db in
        if json then begin
          Imdb_obs.Monitor.sample mon;
          Fmt.pr "%s@." (J.to_string (Db.monitor_json db))
        end
        else begin
          let m = Db.metrics db in
          let k = ref 0 in
          while count = 0 || !k < count do
            incr k;
            Unix.sleepf (float_of_int (max 1 watch));
            (match Imdb_obs.Monitor.rates mon with
            | Some r ->
                Fmt.pr
                  "txn/s=%.1f  wal B/s=%.0f  splits/s=%.2f  stamping-backlog=%d"
                  r.Imdb_obs.Monitor.r_txn_per_s r.Imdb_obs.Monitor.r_wal_bytes_per_s
                  r.Imdb_obs.Monitor.r_splits_per_s r.Imdb_obs.Monitor.r_stamping_backlog;
                (match M.histogram m M.h_commit_latency_ms with
                | Some h -> Fmt.pr "  commit-ms p50=%d p99=%d" h.M.h_p50 h.M.h_p99
                | None -> ());
                Fmt.pr "@."
            | None -> Fmt.pr "(no samples yet: interval %dms)@."
                        (Imdb_obs.Monitor.interval_ms mon));
            Fmt.flush Fmt.stdout ()
          done
        end)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Live engine monitor: continuous sampling of the metrics \
             registry with derived rates (txn/s, WAL bytes/s, splits/s, \
             stamping backlog) and latency percentiles.")
    Term.(const run $ dir_arg $ interval $ watch $ count $ json_flag)

(* --- trace ------------------------------------------------------------------ *)

(* Open with tracing at full sampling, drive some work (user SQL, or a
   small moving-objects workload sized to force time splits and a
   checkpoint), and dump the retained spans — natively, or as Chrome
   trace-event JSON for Perfetto / chrome://tracing. *)
let trace_cmd =
  let chrome_flag =
    Arg.(value & flag
         & info [ "chrome" ]
             ~doc:"Emit Chrome trace-event JSON (load in Perfetto or \
                   chrome://tracing) instead of the native span list.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to FILE instead of stdout.")
  in
  let exec =
    Arg.(value & opt (some string) None
         & info [ "e" ] ~docv:"SQL" ~doc:"Statements to run under tracing (results discarded).")
  in
  let total =
    Arg.(value & opt int 2000
         & info [ "n" ] ~docv:"N" ~doc:"Workload transactions to trace when no SQL is given.")
  in
  let objects =
    Arg.(value & opt int 100 & info [ "objects" ] ~docv:"K" ~doc:"Moving objects in the workload.")
  in
  let sampling =
    Arg.(value & opt int 1
         & info [ "sampling" ] ~docv:"S" ~doc:"Record every S-th root span (1 = all).")
  in
  let run dir chrome out exec total objects sampling =
    let config = { E.default_config with E.trace_sampling = max 1 sampling } in
    with_db ~config dir (fun db ->
        (match exec with
        | Some src ->
            let session = Imdb_sql.Executor.make_session db in
            ignore (Imdb_sql.Executor.exec_string session src)
        | None ->
            (match
               Db.list_tables db
               |> List.find_opt (fun ti -> ti.Imdb_core.Catalog.ti_name = "MovingObjects")
             with
            | Some _ -> ()
            | None ->
                Db.create_table db ~name:"MovingObjects" ~mode:Db.Immortal
                  ~schema:Imdb_workload.Driver.moving_objects_schema);
            let events = Imdb_workload.Moving_objects.generate ~inserts:objects ~total () in
            ignore (Imdb_workload.Driver.run_events db ~table:"MovingObjects" events);
            (* a temporal read and a checkpoint, so the trace shows the
               whole lifecycle: commits, stamping, splits, AS OF, PTT GC *)
            let ts = Imdb_clock.Clock.last_issued (Db.engine db).E.clock in
            ignore (Db.as_of db ts (fun txn -> Db.scan_rows_as_of db txn ~table:"MovingObjects" ~ts));
            Db.checkpoint db);
        let tracer = Db.tracer db in
        let body =
          if chrome then Imdb_obs.Tracer.to_chrome_string tracer
          else Imdb_obs.Tracer.to_json_string tracer
        in
        match out with
        | None -> print_string body; print_newline ()
        | Some path ->
            let oc = open_out path in
            output_string oc body;
            close_out oc;
            Fmt.pr "wrote %s (%d spans, %d slow, %d dropped)@." path
              (List.length (Imdb_obs.Tracer.spans tracer))
              (List.length (Imdb_obs.Tracer.slow_ops tracer))
              (Imdb_obs.Tracer.dropped tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace a workload (or SQL) and export the spans, optionally as Chrome trace JSON.")
    Term.(const run $ dir_arg $ chrome_flag $ out $ exec $ total $ objects $ sampling)

let checkpoint_cmd =
  let run dir =
    with_db dir (fun db ->
        Db.checkpoint db;
        Fmt.pr "checkpoint complete@.")
  in
  Cmd.v (Cmd.info "checkpoint" ~doc:"Force a checkpoint (and PTT garbage collection).")
    Term.(const run $ dir_arg)

let backup_cmd =
  let dest_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DEST"
           ~doc:"Destination database directory (created).")
  in
  let as_of_arg =
    Arg.(value & opt (some string) None & info [ "as-of" ] ~docv:"DATETIME"
           ~doc:"Extract the state as of this time (default: now).")
  in
  let run dir dest as_of =
    with_db dir (fun db ->
        let ts =
          match as_of with
          | Some s -> Ts.of_string s
          | None -> Imdb_clock.Clock.last_issued (Db.engine db).E.clock
        in
        let dest_db = Db.open_dir dest in
        Fun.protect
          ~finally:(fun () -> Db.close dest_db)
          (fun () ->
            let r = Imdb_core.Backup.extract ~src:db ~dest:dest_db ~as_of:ts in
            let n = Imdb_core.Backup.verify ~src:db ~dest:dest_db ~as_of:ts in
            Fmt.pr "backed up %d tables, %d rows as of %a (%d rows verified)@."
              r.Imdb_core.Backup.bk_tables r.Imdb_core.Backup.bk_rows Ts.pp
              r.Imdb_core.Backup.bk_as_of n))
  in
  Cmd.v
    (Cmd.info "backup" ~doc:"Extract a queryable AS OF backup into a new database.")
    Term.(const run $ dir_arg $ dest_arg $ as_of_arg)

let vacuum_cmd =
  let run dir =
    with_db dir (fun db ->
        let n = Db.vacuum db in
        Fmt.pr "vacuum complete: %d timestamp-table entries collected@." n)
  in
  Cmd.v
    (Cmd.info "vacuum"
       ~doc:"Force timestamping to completion and empty the persistent timestamp table.")
    Term.(const run $ dir_arg)

(* --- torture ------------------------------------------------------------- *)

module H = Imdb_torture.Harness

let torture_cmd =
  let seeds_arg =
    Arg.(value & opt_all int [] & info [ "seed" ] ~docv:"N"
           ~doc:"Seed to run (repeatable; default: seed 0).")
  in
  let ops_arg =
    Arg.(value & opt int H.default.H.ops & info [ "ops" ] ~docv:"N"
           ~doc:"Write-operation budget per seed.")
  in
  let crashes_arg =
    Arg.(value & opt int H.default.H.crashes & info [ "crashes" ] ~docv:"N"
           ~doc:"Scheduled crash points per seed.")
  in
  let replay_arg =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Print every workload action while running — replay a \
                 failing seed from a CI report to watch it unfold.")
  in
  let bulk_arg =
    Arg.(value & flag & info [ "bulk" ]
           ~doc:"Mix bulk-insert transactions (16-48 upserts each) into the \
                 workload, stressing the buffered-ingestion flush path.")
  in
  let sessions_arg =
    Arg.(value & opt int 1 & info [ "sessions" ] ~docv:"N"
           ~doc:"Run bursts of N concurrent sessions as seeded fibers on one \
                 domain (partitioned keys, commits merged into the oracle in \
                 timestamp order, the plug pulled at any yield with every \
                 crash kind); the interleaving replays from the seed.  \
                 Default 1: one session over every key.")
  in
  let flight_dir_arg =
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
           ~doc:"On failure, write a flight-recorder report (monitor \
                 samples, session stats, lock dump, traces, metrics) into \
                 DIR — the artifact CI uploads.")
  in
  let run seeds ops crashes replay bulk sessions flight_dir =
    let seeds = if seeds = [] then [ 0 ] else seeds in
    let failed = ref false in
    List.iter
      (fun seed ->
        let cfg =
          { H.default with
            H.seed; ops; crashes; bulk; sessions; flight_dir;
            log = (if replay then Some (fun s -> Fmt.pr "  %s@." s) else None) }
        in
        Fmt.pr "torture: %s@." (H.describe_config cfg);
        match H.run cfg with
        | H.Passed r -> Fmt.pr "%a@." H.pp_report r
        | H.Failed f ->
            failed := true;
            Fmt.pr "%a@." H.pp_failure f;
            if not replay then begin
              Fmt.pr "minimizing the failing run...@.";
              let mcfg, mf = H.minimize cfg f in
              Fmt.pr "minimized: %s@.%a@." (H.describe_config mcfg) H.pp_failure mf;
              Fmt.pr "reproduce: %s@." f.H.f_replay
            end)
      seeds;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Run the adversarial crash/workload torture harness against a \
             linearized AS OF oracle.  Exits non-zero on any oracle \
             disagreement, printing the seed that reproduces it.")
    Term.(const run $ seeds_arg $ ops_arg $ crashes_arg $ replay_arg $ bulk_arg
          $ sessions_arg $ flight_dir_arg)

(* IMDB_LOG=debug|info enables engine/recovery diagnostics on stderr. *)
let setup_logs () =
  match Sys.getenv_opt "IMDB_LOG" with
  | None -> ()
  | Some level ->
      let level =
        match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | "warning" | "warn" -> Some Logs.Warning
        | _ -> Some Logs.Info
      in
      Logs.set_level level;
      Logs.set_reporter
        (Logs.format_reporter ~app:Fmt.stderr ~dst:Fmt.stderr ())

let () =
  setup_logs ();
  let info =
    Cmd.info "imdb" ~version:"1.0.0"
      ~doc:"Immortal DB: a transaction-time database engine."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sql_cmd; tables_cmd; history_cmd; workload_cmd; load_cmd; stats_cmd;
            locks_cmd; monitor_cmd; trace_cmd; checkpoint_cmd; backup_cmd;
            vacuum_cmd; torture_cmd ]))
