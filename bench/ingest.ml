(* Write-optimized ingestion experiment: buffered message appends vs
   per-row descents.

   The same bulk-load workload runs twice on the same config — once
   through snapshot-isolation transactions, whose writes take the
   per-row path (one router descent, one page probe and one stamping
   pass per row; only serializable writers buffer), and once through
   serializable ones (one O(1) message append per row, batch flushes
   applying a whole run per page visit).  Reported: rows/sec for both,
   the speedup, and the counters that certify the mechanism (appends,
   flushes, messages per page visit).

   After loading, both engines serve an identical read workload (point
   lookups, an AS OF scan and a history walk) and the experiment checks
   the results AND the asof.* counters match exactly — buffered
   ingestion must be invisible to readers.

   BENCH_ingest.json carries only deterministic logical counters (never
   wall time). *)

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

let config =
  {
    E.default_config with
    E.page_size = 8192;
    pool_capacity = 256;
    auto_checkpoint_every = 0;
    ingest_buffer_rows = 256;
  }

let rows_per_txn = 200

(* Load [rows] synthetic rows (upserts, 10% repeated keys so version
   chains form), committing every [rows_per_txn], and return the wall
   time plus the counters of interest. *)
let load_phase ~buffered ~rows =
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  let isolation = if buffered then Db.Serializable else Db.Snapshot_isolation in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let elapsed, () =
    Harness.time_it (fun () ->
        let i = ref 0 in
        while !i < rows do
          Imdb_clock.Clock.advance clock 20L;
          Db.exec ~isolation db (fun txn ->
              for _ = 1 to min rows_per_txn (rows - !i) do
                (* every 10th row revisits an earlier key *)
                let k = if !i mod 10 = 9 then !i / 10 else !i in
                Db.upsert_row db txn ~table:"t" (row k (Printf.sprintf "v%d" !i));
                incr i
              done)
        done)
  in
  (elapsed, clock, db)

let row_string r =
  String.concat ","
    (List.map (fun v -> Format.asprintf "%a" S.pp_value v) r)

(* The read workload both engines must answer identically. *)
let read_phase db clock ~rows =
  let now = Imdb_clock.Clock.last_issued clock in
  let results = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> results := s :: !results) fmt in
  let before = M.snapshot (Db.metrics db) in
  Db.exec db (fun txn ->
      let i = ref 0 in
      for _ = 0 to min 999 (rows - 1) do
        (match Db.get_row db txn ~table:"t" ~key:(S.V_int !i) with
        | Some r -> emit "get %d = %s" !i (row_string r)
        | None -> emit "get %d = -" !i);
        i := (!i + 37) mod rows
      done);
  Db.as_of db now (fun txn ->
      let scanned = Db.scan_rows_as_of db txn ~table:"t" ~ts:now in
      List.iteri
        (fun n r -> if n mod 997 = 0 then emit "asof %s" (row_string r))
        scanned;
      emit "asof count %d" (List.length scanned));
  Db.exec db (fun txn ->
      List.iter
        (fun (ts, r) ->
          emit "hist %s %s"
            (Imdb_clock.Timestamp.to_string ts)
            (match r with Some r -> row_string r | None -> "-"))
        (Db.history_rows db txn ~table:"t" ~key:(S.V_int 5)));
  let after = M.snapshot (Db.metrics db) in
  let asof_counters =
    List.filter
      (fun (name, _) -> String.length name >= 5 && String.sub name 0 5 = "asof.")
      (M.diff ~before ~after)
  in
  (List.rev !results, asof_counters)

let run ~scale =
  let rows = Harness.scaled ~scale 1_000_000 in
  let unbuf_s, unbuf_clock, unbuf_db = load_phase ~buffered:false ~rows in
  Fmt.pr "ingest: per-row load done (%.0f rows/s)@." (float_of_int rows /. unbuf_s);
  let buf_s, buf_clock, buf_db = load_phase ~buffered:true ~rows in
  let g db name = M.get (Db.metrics db) name in
  let rate s = float_of_int rows /. s in
  let unbuf_reads, unbuf_asof = read_phase unbuf_db unbuf_clock ~rows in
  let buf_reads, buf_asof = read_phase buf_db buf_clock ~rows in
  let results_identical = unbuf_reads = buf_reads in
  let counters_identical = unbuf_asof = buf_asof in
  if not results_identical then
    Fmt.epr "ingest: buffered and unbuffered READ RESULTS DIFFER@.";
  if not counters_identical then
    Fmt.epr "ingest: buffered and unbuffered asof.* COUNTERS DIFFER@.";
  let speedup = if buf_s > 0.0 then unbuf_s /. buf_s else 0.0 in
  Harness.print_table ~title:"ingest: bulk load, buffered vs per-row (1M rows at scale 1)"
    ~header:[ "mode"; "wall ms"; "rows/sec"; "log appends"; "time splits" ]
    [
      [
        "per-row";
        Harness.ms unbuf_s;
        Fmt.str "%.0f" (rate unbuf_s);
        string_of_int (g unbuf_db M.log_appends);
        string_of_int (g unbuf_db M.time_splits);
      ];
      [
        "buffered";
        Harness.ms buf_s;
        Fmt.str "%.0f" (rate buf_s);
        string_of_int (g buf_db M.log_appends);
        string_of_int (g buf_db M.time_splits);
      ];
    ];
  let flushes = g buf_db M.ingest_flushes in
  let flush_pages = g buf_db M.ingest_flush_pages in
  let flush_msgs = g buf_db M.ingest_flush_messages in
  Harness.print_table ~title:"ingest: mechanism"
    ~header:[ "metric"; "value" ]
    [
      [ "speedup"; Fmt.str "%.2fx" speedup ];
      [ "appends"; string_of_int (g buf_db M.ingest_appends) ];
      [ "flushes"; string_of_int flushes ];
      [ "flush page visits"; string_of_int flush_pages ];
      [
        "msgs/page visit";
        (if flush_pages = 0 then "n/a"
         else Fmt.str "%.1f" (float_of_int flush_msgs /. float_of_int flush_pages));
      ];
      [ "deferred splits"; string_of_int (g buf_db M.ingest_deferred_splits) ];
      [ "results identical"; string_of_bool results_identical ];
      [ "asof counters identical"; string_of_bool counters_identical ];
    ];
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"ingest"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ("rows", J.Int rows);
         ( "buffered",
           J.Obj
             [
               ("ingest_appends", J.Int (g buf_db M.ingest_appends));
               ("ingest_flushes", J.Int flushes);
               ("ingest_flush_messages", J.Int flush_msgs);
               ("ingest_flush_pages", J.Int flush_pages);
               ("ingest_deferred_splits", J.Int (g buf_db M.ingest_deferred_splits));
               ("time_splits", J.Int (g buf_db M.time_splits));
               ("key_splits", J.Int (g buf_db M.key_splits));
               ("log_appends", J.Int (g buf_db M.log_appends));
             ] );
         ( "unbuffered",
           J.Obj
             [
               ("time_splits", J.Int (g unbuf_db M.time_splits));
               ("key_splits", J.Int (g unbuf_db M.key_splits));
               ("log_appends", J.Int (g unbuf_db M.log_appends));
             ] );
         ("results_identical", J.Int (if results_identical then 1 else 0));
         ("asof_counters_identical", J.Int (if counters_identical then 1 else 0));
       ]);
  Db.close unbuf_db;
  Db.close buf_db

let () =
  Harness.register ~name:"ingest"
    ~doc:"write-optimized ingestion: buffered message appends vs per-row descents"
    run
