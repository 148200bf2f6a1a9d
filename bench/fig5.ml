(* Fig. 5: transaction overhead of Immortal DB vs a conventional table.

   The paper runs up to 32,000 transactions — 500 inserts, the rest
   single-record updates — and reports elapsed time for the transaction-
   time table against the conventional table, measuring ~11% overhead in
   this worst case (one record per transaction, so every transaction pays
   the single PTT update).

   We reproduce the sweep over N in {1K..32K} transactions and report
   wall time plus the deterministic work counters that explain the
   difference: log bytes, PTT inserts and page allocations; then the
   per-commit latency distribution of the largest point, with the count
   and median of the commits by the structure work they ran. *)

module Db = Imdb_core.Db
module Driver = Imdb_workload.Driver
module Mo = Imdb_workload.Moving_objects
module M = Imdb_obs.Metrics

let inserts_default = 500

(* Checkpoint periodically, as the production engine would: it keeps the
   PTT garbage-collected (otherwise its B-tree grows with every commit and
   per-transaction cost creeps up with N, an artifact no real deployment
   would see). *)
let bench_config =
  { Imdb_core.Engine.default_config with Imdb_core.Engine.auto_checkpoint_every = 1000 }

let run_one ~mode ~events =
  Gc.compact ();
  let db, clock = Driver.fresh_moving_objects ~config:bench_config ~mode () in
  let result = Driver.run_events ~clock db ~table:"MovingObjects" events in
  Db.close db;
  result

let fig5 ~scale =
  let points = [ 1000; 2000; 4000; 8000; 16000; 32000 ] in
  let data =
    List.map
      (fun n ->
        let n = Harness.scaled ~scale n in
        let inserts = min inserts_default n in
        let events = Mo.generate ~seed:42 ~inserts ~total:n () in
        let conv = run_one ~mode:Db.Conventional ~events in
        let imm = run_one ~mode:Db.Immortal ~events in
        (n, conv, imm))
      points
  in
  let rows =
    List.map
      (fun (n, conv, imm) ->
        [
          Printf.sprintf "%dK" (n / 1000);
          Harness.ms conv.Driver.rr_elapsed_s;
          Harness.ms imm.Driver.rr_elapsed_s;
          Harness.pct imm.Driver.rr_elapsed_s conv.Driver.rr_elapsed_s;
          string_of_int (Driver.counter imm M.ptt_inserts);
          string_of_int (Driver.counter imm M.log_bytes - Driver.counter conv M.log_bytes);
          string_of_int (Driver.counter imm M.time_splits);
        ])
      data
  in
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"fig5"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ( "points",
           J.List
             (List.map
                (fun (n, conv, imm) ->
                  J.Obj
                    [
                      ("txns", J.Int n);
                      ("conventional", Harness.json_of_counters conv.Driver.rr_counters);
                      ("immortal", Harness.json_of_counters imm.Driver.rr_counters);
                    ])
                data) );
       ]);
  Harness.print_table
    ~title:
      "Fig 5: transaction overhead (500 inserts, rest single-record updates; \
       1 txn per record)"
    ~header:
      [ "txns"; "conventional ms"; "immortal ms"; "overhead"; "PTT ins";
        "extra log B"; "time splits" ]
    rows;
  Fmt.pr
    "paper shape: immortal overhead stays small (paper: ~11%% at 32K, 1.1ms of \
     9.6ms/txn), driven by the per-commit PTT update; here a checkpoint posts \
     to the PTT (PTT ins) only the mappings the log no longer answers for.@.";
  (* Per-commit wall latency at the largest point: where the overhead
     sits, as opposed to its total.  Wall time only, so it stays out of
     the JSON and the counter gate. *)
  let n, conv, imm = List.nth data (List.length data - 1) in
  let pct_of sorted p =
    let len = Array.length sorted in
    if len = 0 then nan else sorted.(min (len - 1) (int_of_float (p *. float_of_int len)))
  in
  let classes =
    Driver.[ ("none", Cw_none); ("flush", Cw_flush); ("time split", Cw_time_split);
             ("checkpoint", Cw_checkpoint) ]
  in
  let latency_row name r =
    let sorted keep =
      let a =
        Array.of_list
          (List.filter_map
             (fun (us, work) -> if keep work then Some us else None)
             (Array.to_list r.Driver.rr_commit_latency))
      in
      Array.sort compare a;
      a
    in
    let all = sorted (fun _ -> true) in
    [
      name;
      Fmt.str "%.1f" (pct_of all 0.5);
      Fmt.str "%.1f" (pct_of all 0.99);
      Fmt.str "%.1f" (pct_of all 0.999);
    ]
    @ List.map
        (fun (_, work) ->
          let a = sorted (( = ) work) in
          if Array.length a = 0 then "0"
          else Fmt.str "%d / %.1f" (Array.length a) (pct_of a 0.5))
        classes
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Fig 5 per-commit latency at %dK (begin to commit return; by the \
          structure work a commit ran: count / p50 us)"
         (n / 1000))
    ~header:([ "mode"; "p50 us"; "p99 us"; "p99.9 us" ] @ List.map fst classes)
    [ latency_row "conventional" conv; latency_row "immortal" imm ];
  (* The paper's companion observation: "If we include many updates within
     one transaction, we would have about the same [per-transaction]
     overhead, but the overhead percentage would be much lower" — and the
     all-in-one-transaction case was "indistinguishable" from conventional.
     Sweep the records-per-transaction batch size. *)
  let n = Harness.scaled ~scale 32000 in
  let inserts = min inserts_default n in
  let events = Mo.generate ~seed:42 ~inserts ~total:n () in
  let run_batched ~mode ~batch =
    Gc.compact ();
    let db, clock = Driver.fresh_moving_objects ~config:bench_config ~mode () in
    let r = Driver.run_events_batched ~clock ~batch db ~table:"MovingObjects" events in
    Db.close db;
    r
  in
  let rows =
    List.map
      (fun batch ->
        let conv = run_batched ~mode:Db.Conventional ~batch in
        let imm = run_batched ~mode:Db.Immortal ~batch in
        [
          string_of_int batch;
          Harness.ms conv.Driver.rr_elapsed_s;
          Harness.ms imm.Driver.rr_elapsed_s;
          Harness.pct imm.Driver.rr_elapsed_s conv.Driver.rr_elapsed_s;
          string_of_int (Driver.counter imm M.ptt_inserts);
        ])
      [ 1; 10; 100; 1000 ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Fig 5 (companion): records per transaction, %d records total" n)
    ~header:[ "records/txn"; "conventional ms"; "immortal ms"; "overhead"; "PTT ins" ]
    rows

let () = Harness.register ~name:"fig5" ~doc:"transaction overhead (Fig. 5)" fig5
