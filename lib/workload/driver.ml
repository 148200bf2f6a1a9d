(* Experiment driver: replays a moving-objects event stream against a
   database table, one transaction per event (the paper's worst case —
   "each transaction updates a single record"), and measures elapsed time
   plus the engine's deterministic work counters. *)

module Db = Imdb_core.Db
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module M = Imdb_obs.Metrics

(* The paper's table: Create IMMORTAL Table MovingObjects
   (Oid smallint PRIMARY KEY, LocationX int, LocationY int) *)
let moving_objects_schema =
  S.make
    [
      { S.col_name = "Oid"; col_type = S.T_int };
      { S.col_name = "LocationX"; col_type = S.T_int };
      { S.col_name = "LocationY"; col_type = S.T_int };
    ]

(* The heaviest structure work a transaction ran, from begin to commit
   return: a time split always runs inside an ingest flush, and a
   checkpoint may follow either. *)
type commit_work = Cw_none | Cw_flush | Cw_time_split | Cw_checkpoint

type run_result = {
  rr_events : int;
  rr_elapsed_s : float;
  rr_counters : M.snapshot;  (* this db's counter deltas over the run *)
  rr_commit_ts : Ts.t list; (* commit timestamps, oldest first (sampled) *)
  rr_commit_latency : (float * commit_work) array;
      (* per event: µs from begin to commit return, and the structure
         work it ran *)
}

(* Which structure work ran between two readings of the registry: the
   counters tell, so no tracing is needed. *)
let work_counters m = (M.get m M.checkpoints, M.get m M.time_splits, M.get m M.ingest_flushes)

let work_between (c0, s0, f0) (c1, s1, f1) =
  if c1 > c0 then Cw_checkpoint
  else if s1 > s0 then Cw_time_split
  else if f1 > f0 then Cw_flush
  else Cw_none

(* Apply [events] to [table] in [db], one transaction each.  The logical
   [clock] (if given) advances a quantum per transaction so that
   timestamps spread deterministically over "time".  [sample_every] keeps
   every k-th commit timestamp for later AS OF probing. *)
let run_events ?clock ?(sample_every = 1) db ~table events =
  let samples = ref [] in
  let count = ref 0 in
  let latency = ref [] in
  let m = Db.metrics db in
  let before = M.snapshot m in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ev ->
      (match clock with Some c -> Imdb_clock.Clock.advance c 20L | None -> ());
      let work = work_counters m in
      let t_begin = Unix.gettimeofday () in
      let txn = Db.begin_txn db in
      (match ev with
      | Moving_objects.Insert { oid; x; y } ->
          Db.insert_row db txn ~table [ S.V_int oid; S.V_int x; S.V_int y ]
      | Moving_objects.Update { oid; x; y } ->
          Db.update_row db txn ~table [ S.V_int oid; S.V_int x; S.V_int y ]);
      (match Db.commit db txn with
      | Some ts -> if !count mod sample_every = 0 then samples := ts :: !samples
      | None -> ());
      let us = (Unix.gettimeofday () -. t_begin) *. 1e6 in
      latency := (us, work_between work (work_counters m)) :: !latency;
      incr count)
    events;
  let elapsed = Unix.gettimeofday () -. t0 in
  let after = M.snapshot m in
  {
    rr_events = !count;
    rr_elapsed_s = elapsed;
    rr_counters = M.diff ~before ~after;
    rr_commit_ts = List.rev !samples;
    rr_commit_latency = Array.of_list (List.rev !latency);
  }

let counter result name =
  match List.assoc_opt name result.rr_counters with Some v -> v | None -> 0

(* Apply [events] in transactions of [batch] records each — the paper's
   "many updates within one transaction" case, which amortizes the
   per-commit PTT update. *)
let run_events_batched ?clock ~batch db ~table events =
  let before = M.snapshot (Db.metrics db) in
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  let rec go = function
    | [] -> ()
    | evs ->
        (match clock with Some c -> Imdb_clock.Clock.advance c 20L | None -> ());
        let txn = Db.begin_txn db in
        let rec fill n = function
          | ev :: rest when n > 0 ->
              (match ev with
              | Moving_objects.Insert { oid; x; y } ->
                  Db.insert_row db txn ~table [ S.V_int oid; S.V_int x; S.V_int y ]
              | Moving_objects.Update { oid; x; y } ->
                  Db.upsert_row db txn ~table [ S.V_int oid; S.V_int x; S.V_int y ]);
              incr count;
              fill (n - 1) rest
          | rest -> rest
        in
        let rest = fill batch evs in
        ignore (Db.commit db txn);
        go rest
  in
  go events;
  let elapsed = Unix.gettimeofday () -. t0 in
  let after = M.snapshot (Db.metrics db) in
  {
    rr_events = !count;
    rr_elapsed_s = elapsed;
    rr_counters = M.diff ~before ~after;
    rr_commit_ts = [];
    rr_commit_latency = [||];
  }

(* Create a fresh in-memory database + MovingObjects table in the given
   mode and configuration. *)
let fresh_moving_objects ?(config = Imdb_core.Engine.default_config) ~mode () =
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  Db.create_table db ~name:"MovingObjects" ~mode ~schema:moving_objects_schema;
  (db, clock)

type scan_measure = {
  sm_elapsed_s : float;
  sm_rows : int;
  sm_pages : int; (* pages visited on the temporal access path *)
  sm_misses : int; (* buffer misses: real page reads *)
}

(* AS OF scan with the work counters that explain the elapsed time. *)
let measured_scan_as_of db ~table ~ts =
  let before = M.snapshot (Db.metrics db) in
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  Db.as_of db ts (fun txn -> Db.scan db txn ~table (fun _ _ -> incr n));
  let elapsed = Unix.gettimeofday () -. t0 in
  let after = M.snapshot (Db.metrics db) in
  let d = M.diff ~before ~after in
  let get name = match List.assoc_opt name d with Some v -> v | None -> 0 in
  {
    sm_elapsed_s = elapsed;
    sm_rows = !n;
    sm_pages = get M.asof_pages;
    sm_misses = get M.buf_misses;
  }

let timed_scan_current db ~table =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  Db.exec db (fun txn -> Db.scan db txn ~table (fun _ _ -> incr n));
  (Unix.gettimeofday () -. t0, !n)
