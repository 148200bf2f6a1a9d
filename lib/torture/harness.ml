(* The torture harness: a seed-driven workload generator, a crash
   scheduler aimed at the engine's most delicate write paths, and a
   verification loop that checks every answer the engine can give against
   the linearized oracle in {!Model}.

   Everything derives from the seed: the workload PRNG, the crash
   schedule (seed lxor a salt), each crash point's private countdown
   (seed mixed with the point's position).  The clock is logical and
   ticks a fixed quantum per transaction.  No wall time, no OS
   randomness: a failure replays from the printed seed alone. *)

module Ts = Imdb_clock.Timestamp
module Clock = Imdb_clock.Clock
module Rng = Imdb_util.Rng
module Mx = Imdb_obs.Metrics
module Disk = Imdb_storage.Disk
module Page = Imdb_storage.Page
module Wal = Imdb_wal.Wal
module E = Imdb_core.Engine
module Db = Imdb_core.Db

exception Torture_failure of string

type crash_kind =
  | Crash_wal_tail
  | Crash_data_write
  | Crash_history_write
  | Crash_meta_write
  | Crash_recovery
  | Crash_buffer_write

let crash_kind_name = function
  | Crash_wal_tail -> "wal-tail"
  | Crash_data_write -> "data-write"
  | Crash_history_write -> "history-write"
  | Crash_meta_write -> "meta-write"
  | Crash_recovery -> "recovery"
  | Crash_buffer_write -> "buffer-write"

let all_crash_kinds =
  [
    Crash_wal_tail;
    Crash_data_write;
    Crash_history_write;
    Crash_meta_write;
    Crash_recovery;
    Crash_buffer_write;
  ]

let kind_index k =
  let rec go i = function
    | [] -> 0
    | k' :: rest -> if k' = k then i else go (i + 1) rest
  in
  go 0 all_crash_kinds

type crash_point = { cp_commit : int; cp_kind : crash_kind; cp_torn : bool }
type sabotage = Skew_stamp of int | Drop_write of int

type config = {
  seed : int;
  ops : int;
  crashes : int;
  tables : int;
  keys_per_table : int;
  page_size : int;
  pool_capacity : int;
  auto_checkpoint_every : int;
  verify_every : int;
  verify_limit : int;
  bulk : bool;
  sessions : int;
  sabotage : sabotage option;
  schedule : crash_point list option;
  log : (string -> unit) option;
  flight_dir : string option;
}

let default =
  {
    seed = 1;
    ops = 10_000;
    crashes = 60;
    tables = 2;
    keys_per_table = 48;
    page_size = 1024;
    pool_capacity = 12;
    auto_checkpoint_every = 40;
    verify_every = 0;
    verify_limit = 0;
    bulk = false;
    sessions = 1;
    sabotage = None;
    schedule = None;
    log = None;
    flight_dir = None;
  }

(* The crash schedule: [crashes] points spread over the expected commit
   count (ops / mean txn size, minus aborts), kinds cycling through a
   per-block shuffle of all five so every kind appears once in every
   window of five crashes. *)
let schedule_of cfg =
  match cfg.schedule with
  | Some s -> s
  | None ->
      let rng = Rng.create (cfg.seed lxor 0x5EED) in
      let expected_commits = max 20 (cfg.ops * 2 / 5) in
      let n = cfg.crashes in
      if n <= 0 then []
      else begin
        let gap = max 4 (expected_commits / (n + 1)) in
        let kinds = Array.of_list all_crash_kinds in
        let block = Array.copy kinds in
        let out = ref [] in
        let at = ref 0 in
        for i = 0 to n - 1 do
          if i mod Array.length kinds = 0 then Rng.shuffle rng block;
          let kind = block.(i mod Array.length kinds) in
          at := !at + max 2 ((gap / 2) + Rng.int rng (max 1 gap));
          let torn = (match kind with Crash_wal_tail -> false | _ -> Rng.bool rng) in
          out := { cp_commit = !at; cp_kind = kind; cp_torn = torn } :: !out
        done;
        List.rev !out
      end

type report = {
  r_seed : int;
  r_ops : int;
  r_commits : int;
  r_aborts : int;
  r_crashes : int;
  r_crash_kinds : (string * int) list;
  r_torn : int;
  r_recoveries : int;
  r_double_recoveries : int;
  r_volatile_drops : int;
  r_asof_checks : int;
  r_boundary_checks : int;
  r_history_checks : int;
  r_point_checks : int;
  r_spot_checks : int;
  r_time_splits : int;
  r_checkpoints : int;
  r_torn_rebuilt : int;
}

type failure = {
  f_seed : int;
  f_op : int;
  f_commits : int;
  f_msg : string;
  f_trace : string list;
}

type outcome = Passed of report | Failed of failure

(* The immediate predecessor of [ts] in the (ttime, sn) lattice: the
   last instant at which a commit stamped [ts] must NOT yet be visible. *)
let just_before ts =
  let sn = Ts.sn ts in
  if sn > 0 then Ts.make ~ttime:(Ts.ttime ts) ~sn:(sn - 1)
  else Ts.make ~ttime:(Int64.sub (Ts.ttime ts) 1L) ~sn:0xFFFFFFFF

let torture_schema =
  Imdb_core.Schema.make
    [
      { Imdb_core.Schema.col_name = "k"; col_type = Imdb_core.Schema.T_string };
      { Imdb_core.Schema.col_name = "v"; col_type = Imdb_core.Schema.T_string };
    ]

let short v = if String.length v > 16 then String.sub v 0 16 ^ "..." else v

let run cfg =
  let rng = Rng.create cfg.seed in
  let clock = Clock.create_logical () in
  let plan = Disk.never_fail () in
  let disk = Disk.failing ~plan (Disk.in_memory ~page_size:cfg.page_size ()) in
  let log_device = Wal.Device.in_memory () in
  let metrics = Mx.create () in
  let econfig =
    {
      E.default_config with
      E.page_size = cfg.page_size;
      pool_capacity = cfg.pool_capacity;
      auto_checkpoint_every = cfg.auto_checkpoint_every;
      (* multi-session runs park on lock conflicts instead of failing
         fast (table intent locks meet even on partitioned keys) *)
      lock_wait_timeout_ms = (if cfg.sessions > 1 then 2_000 else 0);
      flight_recorder_dir = cfg.flight_dir;
      (* a flight report with an empty ring is a black box with no tape:
         when recording is requested, run the monitor too *)
      monitor_interval_ms = (if cfg.flight_dir <> None then 100 else 0);
    }
  in
  let table_names = List.init cfg.tables (Printf.sprintf "t%d") in
  let key_name k = Printf.sprintf "k%03d" k in
  let reopen () = Db.open_devices ~metrics ~config:econfig ~clock ~disk ~log_device () in

  (* ---- mutable run state -------------------------------------------- *)
  let model = Model.create ~tables:table_names in
  let db = ref (reopen ()) in
  List.iter
    (fun name -> Db.create_table !db ~name ~mode:Db.Immortal ~schema:torture_schema)
    table_names;
  Db.checkpoint !db;

  let ops_done = ref 0 in
  let commits = ref 0 in
  let commit_seq = ref 0 in
  let aborts = ref 0 in
  let crashes = ref 0 in
  let torn = ref 0 in
  let recoveries = ref 0 in
  let double_recoveries = ref 0 in
  let volatile_drops = ref 0 in
  let asof_checks = ref 0 in
  let boundary_checks = ref 0 in
  let history_checks = ref 0 in
  let point_checks = ref 0 in
  let spot_checks = ref 0 in
  let kind_fired = List.map (fun k -> (k, ref 0)) all_crash_kinds in

  (* the transaction a crash may interrupt, with the writes it applied *)
  let inflight : (E.txn * Model.write list) option ref = ref None in

  (* ---- trace ring --------------------------------------------------- *)
  let trace_cap = 64 in
  let trace = Array.make trace_cap "" in
  let trace_n = ref 0 in
  let act fmt =
    Printf.ksprintf
      (fun s ->
        (match cfg.log with Some f -> f s | None -> ());
        trace.(!trace_n mod trace_cap) <- s;
        incr trace_n)
      fmt
  in
  let trace_list () =
    let n = !trace_n in
    let start = max 0 (n - trace_cap) in
    List.init (n - start) (fun i -> trace.((start + i) mod trace_cap))
  in
  let fail fmt = Printf.ksprintf (fun s -> raise (Torture_failure s)) fmt in

  (* ---- oracle plumbing ---------------------------------------------- *)
  (* Record a commit in the model, applying any configured sabotage: the
     self-test switch that makes the oracle deliberately wrong so a
     passing detector can be shown to fail. *)
  let record_commit ~ts writes =
    incr commit_seq;
    incr commits;
    let ts, writes =
      match cfg.sabotage with
      | Some (Skew_stamp n) when n > 0 && !commit_seq mod n = 0 -> (just_before ts, writes)
      | Some (Drop_write n) when n > 0 && !commit_seq mod n = 0 && writes <> [] ->
          (ts, List.tl writes)
      | _ -> (ts, writes)
    in
    Model.record model ~ts ~tag:!ops_done writes
  in

  let tick () = Clock.advance clock 20L in

  let scan_now table =
    let out = ref [] in
    Db.exec !db (fun txn -> Db.scan !db txn ~table (fun k v -> out := (k, v) :: !out));
    List.rev !out
  in
  let scan_at table ts =
    let out = ref [] in
    Db.exec !db (fun txn ->
        Db.scan_as_of !db txn ~table ~ts (fun k v -> out := (k, v) :: !out));
    List.rev !out
  in

  let compare_states ~what ~table want got =
    if want <> got then begin
      let rec first a b =
        match (a, b) with
        | [], [] -> "?"
        | (k, v) :: _, [] -> Printf.sprintf "engine missing %s=%s" k (short v)
        | [], (k, v) :: _ -> Printf.sprintf "engine has extra %s=%s" k (short v)
        | (k1, v1) :: ta, (k2, v2) :: tb ->
            if k1 = k2 && v1 = v2 then first ta tb
            else if k1 = k2 then Printf.sprintf "%s: model=%s engine=%s" k1 (short v1) (short v2)
            else if k1 < k2 then Printf.sprintf "engine missing %s=%s" k1 (short v1)
            else Printf.sprintf "engine has extra %s=%s" k2 (short v2)
      in
      fail "%s: table %s: model has %d rows, engine %d; first diff: %s" what table
        (List.length want) (List.length got) (first want got)
    end
  in

  (* One AS OF state against [state], the model's rows as of [ts], in
     one [Db.as_of ts] transaction: the full scan, then point reads of two
     keys — one drawn from the key space, present or not at [ts], and one
     never written.  The draw has its own seeded stream, so verification
     never shifts the workload's. *)
  let sample_rng = Rng.create (cfg.seed lxor 0x9017) in
  let check_state ~what ~table ts state =
    let keys =
      [ key_name (Rng.int sample_rng cfg.keys_per_table); key_name cfg.keys_per_table ]
    in
    Db.as_of !db ts (fun txn ->
        let out = ref [] in
        Db.scan !db txn ~table (fun k v -> out := (k, v) :: !out);
        compare_states ~what ~table state (List.rev !out);
        List.iter
          (fun key ->
            let want = List.assoc_opt key state in
            let got = Db.get !db txn ~table ~key in
            if got <> want then
              fail "%s: point read of %s/%s: model=%s engine=%s" what table key
                (Option.fold ~none:"-" ~some:short want)
                (Option.fold ~none:"-" ~some:short got);
            incr point_checks)
          keys)
  in

  (* Full verification: current state, the state as of EVERY commit
     timestamp (subject to [verify_limit]) with point reads of a key
     sample there, boundary states just below commit timestamps, and
     every key's version history. *)
  let verify_full ~label () =
    List.iter
      (fun table ->
        compare_states ~what:(label ^ ": current state") ~table
          (Model.current_state model ~table)
          (scan_now table);
        let n = Model.commit_count model in
        if n > 0 then begin
          let dense_from, stride =
            if cfg.verify_limit <= 0 || n <= cfg.verify_limit then (0, 1)
            else
              (n - (cfg.verify_limit / 2), max 2 (n / max 1 (cfg.verify_limit / 2)))
          in
          let idx = ref (-1) in
          let prev = ref [] in
          Model.iter_states model ~table ~f:(fun ~ts ~tag ~state ->
              incr idx;
              if !idx >= dense_from || !idx mod stride = 0 then begin
                let what =
                  Printf.sprintf "%s: AS OF %s (commit #%d, op %d)" label (Ts.to_string ts)
                    !idx tag
                in
                check_state ~what ~table ts state;
                incr asof_checks;
                (* just below the commit timestamp the commit must be
                   invisible: catches stamps leaking backward in time *)
                if !idx land 3 = 0 then begin
                  let what =
                    Printf.sprintf "%s: AS OF just below %s (commit #%d)" label
                      (Ts.to_string ts) !idx
                  in
                  check_state ~what ~table (just_before ts) !prev;
                  incr boundary_checks
                end
              end;
              prev := state)
        end;
        let want_h = Model.histories model ~table in
        for k = 0 to cfg.keys_per_table - 1 do
          let key = key_name k in
          let want = Option.value (Hashtbl.find_opt want_h key) ~default:[] in
          let got = Db.exec !db (fun txn -> Db.history !db txn ~table ~key) in
          let equal =
            List.length want = List.length got
            && List.for_all2
                 (fun (t1, v1) (t2, v2) -> Ts.compare t1 t2 = 0 && v1 = v2)
                 want got
          in
          if not equal then
            fail "%s: history of %s/%s: model has %d versions, engine %d" label table key
              (List.length want) (List.length got);
          incr history_checks
        done)
      table_names
  in

  (* ---- workload ----------------------------------------------------- *)
  let gen_value () =
    Printf.sprintf "v%d.%d|%s" !commit_seq !ops_done (String.make (Rng.int rng 64) 'x')
  in

  (* [Db.commit] may only return once the commit record is durable; the
     run fails on any returned commit not yet acknowledged. *)
  let check_durable ~what txn ts =
    if not txn.E.tx_durable then
      fail "%s ts=%s returned before its commit record was durable" what (Ts.to_string ts)
  in

  (* One transaction: 1..4 writes on distinct keys, chosen to be valid
     against the oracle's current state (insert absent keys, update or
     delete present ones), with read-your-writes checks inline.  About
     one in twelve deliberately aborts.  [leave_open] stops after the
     writes, leaving the transaction in [inflight] for a plug pull. *)
  let txn_step ?(leave_open = false) () =
    let budget = cfg.ops - !ops_done in
    if budget > 0 then begin
      let size = min (1 + Rng.int rng 4) budget in
      tick ();
      let txn = Db.begin_txn !db in
      inflight := Some (txn, []);
      let writes = ref [] in
      let overlay : (string * string, string option) Hashtbl.t = Hashtbl.create 8 in
      let donec = ref 0 in
      let attempts = ref 0 in
      while !donec < size && !attempts < size * 4 do
        incr attempts;
        let table = List.nth table_names (Rng.int rng cfg.tables) in
        let key = key_name (Rng.int rng cfg.keys_per_table) in
        if not (Hashtbl.mem overlay (table, key)) then begin
          let live = Model.mem model ~table ~key in
          let value = gen_value () in
          let w =
            if live then
              match Rng.int rng 100 with
              | d when d < 55 ->
                  Db.update !db txn ~table ~key ~payload:value;
                  { Model.w_table = table; w_key = key; w_value = Some value }
              | d when d < 80 ->
                  Db.delete !db txn ~table ~key;
                  { Model.w_table = table; w_key = key; w_value = None }
              | _ ->
                  Db.upsert !db txn ~table ~key ~payload:value;
                  { Model.w_table = table; w_key = key; w_value = Some value }
            else if Rng.int rng 100 < 70 then begin
              Db.insert !db txn ~table ~key ~payload:value;
              { Model.w_table = table; w_key = key; w_value = Some value }
            end
            else begin
              Db.upsert !db txn ~table ~key ~payload:value;
              { Model.w_table = table; w_key = key; w_value = Some value }
            end
          in
          Hashtbl.replace overlay (table, key) w.Model.w_value;
          writes := w :: !writes;
          inflight := Some (txn, List.rev !writes);
          incr donec;
          incr ops_done;
          if Rng.int rng 3 = 0 then begin
            (* read check: own writes shadow the committed state *)
            let rk = key_name (Rng.int rng cfg.keys_per_table) in
            let expect =
              match Hashtbl.find_opt overlay (table, rk) with
              | Some v -> v
              | None -> Model.value_of model ~table ~key:rk
            in
            let got = Db.get !db txn ~table ~key:rk in
            if got <> expect then
              fail "op %d: read of %s/%s inside txn: model=%s engine=%s" !ops_done table rk
                (Option.fold ~none:"-" ~some:short expect)
                (Option.fold ~none:"-" ~some:short got)
          end
        end
      done;
      if leave_open then ()
      else if !writes = [] then begin
        Db.abort !db txn;
        inflight := None
      end
      else if Rng.int rng 12 = 0 then begin
        Db.abort !db txn;
        incr aborts;
        inflight := None;
        act "op %d: abort (%d writes rolled back)" !ops_done (List.length !writes)
      end
      else begin
        match Db.commit !db txn with
        | Some ts ->
            inflight := None;
            check_durable ~what:(Printf.sprintf "op %d: commit" !ops_done) txn ts;
            record_commit ~ts (List.rev !writes);
            act "op %d: commit ts=%s (%d writes)" !ops_done (Ts.to_string ts)
              (List.length !writes)
        | None -> fail "op %d: commit of a writing transaction returned no timestamp" !ops_done
      end
    end
  in

  (* A bulk-insert transaction: 16–48 upserts on distinct keys in one
     transaction.  Deliberately shaped like `imdb load` batches — fills
     the ingest buffer fast enough to force mid-transaction flushes, so
     crashes land on half-flushed buffers. *)
  let bulk_step () =
    let budget = cfg.ops - !ops_done in
    if budget > 0 then begin
      let size = min (16 + Rng.int rng 33) budget in
      tick ();
      let txn = Db.begin_txn !db in
      inflight := Some (txn, []);
      let writes = ref [] in
      let seen = Hashtbl.create 16 in
      let donec = ref 0 in
      let attempts = ref 0 in
      while !donec < size && !attempts < size * 4 do
        incr attempts;
        let table = List.nth table_names (Rng.int rng cfg.tables) in
        let key = key_name (Rng.int rng cfg.keys_per_table) in
        if not (Hashtbl.mem seen (table, key)) then begin
          Hashtbl.replace seen (table, key) ();
          let value = gen_value () in
          Db.upsert !db txn ~table ~key ~payload:value;
          writes := { Model.w_table = table; w_key = key; w_value = Some value } :: !writes;
          inflight := Some (txn, List.rev !writes);
          incr donec;
          incr ops_done
        end
      done;
      if !writes = [] then begin
        Db.abort !db txn;
        inflight := None
      end
      else begin
        match Db.commit !db txn with
        | Some ts ->
            inflight := None;
            check_durable ~what:(Printf.sprintf "op %d: bulk commit" !ops_done) txn ts;
            record_commit ~ts (List.rev !writes);
            act "op %d: bulk commit ts=%s (%d upserts)" !ops_done (Ts.to_string ts)
              (List.length !writes)
        | None ->
            fail "op %d: bulk commit of a writing transaction returned no timestamp"
              !ops_done
      end
    end
  in

  let spot_check () =
    let n = Model.commit_count model in
    if n > 0 then begin
      let i = Rng.int rng n in
      let c = List.nth (Model.commits model) i in
      let table = List.nth table_names (Rng.int rng cfg.tables) in
      compare_states
        ~what:(Printf.sprintf "spot check AS OF %s (commit #%d)" (Ts.to_string c.Model.c_ts) i)
        ~table
        (Model.state_at model ~table c.Model.c_ts)
        (scan_at table c.Model.c_ts);
      incr spot_checks
    end
  in

  (* ---- crashes ------------------------------------------------------ *)
  let point_rng cp =
    Rng.create ((cfg.seed * 1_000_003) lxor (cp.cp_commit * 7919) lxor kind_index cp.cp_kind)
  in

  let sched = ref (schedule_of cfg) in
  let armed : (crash_point * int) option ref = ref None in
  let meta_force = ref false in

  (* The crash proper.  Every commit that returned is durable (checked as
     it returned), so the oracle already holds exactly what must survive.
     The one open question is a commit the crash interrupted: it enters
     the oracle iff its commit record was synced ([tx_durable]); any
     other interrupted transaction is a loser that recovery must roll
     back.  The crash then recovers (twice, for Crash_recovery) and
     [verify_full] judges the outcome. *)
  let do_crash cp =
    incr crashes;
    incr (List.assq cp.cp_kind kind_fired);
    if cp.cp_torn then incr torn;
    Disk.lift plan;
    (match !inflight with
    | Some ({ E.tx_durable = true; tx_commit_ts = Some ts; _ }, writes) ->
        record_commit ~ts writes;
        act "crash: in-flight commit ts=%s was durable; adopted" (Ts.to_string ts)
    | Some _ | None -> ());
    inflight := None;
    (* pull the plug: volatile state evaporates, the devices persist *)
    Wal.crash_volatile (Db.engine !db).E.wal;
    Imdb_buffer.Buffer_pool.drop_all (Db.engine !db).E.pool;
    let new_db =
      if cp.cp_kind = Crash_recovery then begin
        (* a short fuse: recovery's data-page traffic is only the scrub
           rebuilds plus the final checkpoint sweep, so the armed failure
           must land within its first few writes to hit recovery at all *)
        let prng = point_rng cp in
        Disk.arm plan ~tear:cp.cp_torn ~after:(Rng.int prng 3) ();
        match reopen () with
        | db2 ->
            Disk.lift plan;
            act "crash: recovery finished before its armed failure";
            db2
        | exception Disk.Io_failure _ ->
            Disk.lift plan;
            incr double_recoveries;
            act "crash: recovery itself crashed; recovering again";
            reopen ()
      end
      else reopen ()
    in
    db := new_db;
    incr recoveries;
    act "crash #%d (%s%s): recovered; model has %d commits" !crashes
      (crash_kind_name cp.cp_kind)
      (if cp.cp_torn then ", torn page" else "")
      (Model.commit_count model);
    verify_full ~label:(Printf.sprintf "post-recovery #%d" !crashes) ()
  in

  (* Power loss mid-transaction: open a transaction, write, and pull the
     plug while its newest log record is still in the volatile tail.  A
     write can itself flush the log (WAL-before-data on an eviction it
     causes), so a transaction left fully durable is rolled back and
     another one tried. *)
  let wal_tail_crash cp =
    let volatile () =
      match !inflight with
      | Some (txn, _) ->
          Int64.compare txn.E.tx_last_lsn (Wal.flushed_lsn (Db.engine !db).E.wal) >= 0
      | None -> false
    in
    let rec open_txn tries =
      txn_step ~leave_open:true ();
      match !inflight with
      | Some (txn, _) when tries > 1 && not (volatile ()) ->
          Db.abort !db txn;
          inflight := None;
          open_txn (tries - 1)
      | _ -> ()
    in
    open_txn 4;
    if volatile () then begin
      incr volatile_drops;
      act "crash point: wal-tail with an open transaction's record volatile"
    end
    else act "crash point: wal-tail with no volatile transaction record";
    do_crash cp
  in

  let initiate cp =
    match cp.cp_kind with
    | Crash_wal_tail -> wal_tail_crash cp
    | Crash_recovery -> do_crash cp
    | Crash_data_write ->
        let prng = point_rng cp in
        Disk.arm plan ~tear:cp.cp_torn
          ~target:(Disk.Writes_of_type [ Page.P_data ])
          ~after:(Rng.int prng 25) ();
        armed := Some (cp, !commits);
        act "crash point armed: data-write%s" (if cp.cp_torn then " (torn)" else "")
    | Crash_history_write ->
        Disk.arm plan ~tear:cp.cp_torn
          ~target:(Disk.Writes_of_type [ Page.P_history_compressed ])
          ~after:0 ();
        armed := Some (cp, !commits);
        act "crash point armed: history-write%s (mid-time-split)"
          (if cp.cp_torn then " (torn)" else "")
    | Crash_meta_write ->
        Disk.arm plan ~tear:cp.cp_torn
          ~target:(Disk.Writes_to_page Imdb_storage.Page.no_page)
          ~after:0 ();
        meta_force := true;
        armed := Some (cp, !commits);
        act "crash point armed: meta-write%s (mid-checkpoint)"
          (if cp.cp_torn then " (torn)" else "")
    | Crash_buffer_write ->
        Disk.arm plan ~tear:cp.cp_torn
          ~target:(Disk.Writes_of_type [ Page.P_msg_buffer ])
          ~after:0 ();
        armed := Some (cp, !commits);
        act "crash point armed: buffer-write%s (ingest buffer page)"
          (if cp.cp_torn then " (torn)" else "")
  in

  let on_io_failure () =
    match !armed with
    | Some (cp, _) ->
        armed := None;
        meta_force := false;
        do_crash cp
    | None -> fail "unexpected injected I/O failure with no armed crash point"
  in

  (* ---- main loop ---------------------------------------------------- *)
  let last_verified = ref 0 in
  let passed () =
    Passed
      {
        r_seed = cfg.seed;
        r_ops = !ops_done;
        r_commits = !commits;
        r_aborts = !aborts;
        r_crashes = !crashes;
        r_crash_kinds = List.map (fun (k, c) -> (crash_kind_name k, !c)) kind_fired;
        r_torn = !torn;
        r_recoveries = !recoveries;
        r_double_recoveries = !double_recoveries;
        r_volatile_drops = !volatile_drops;
        r_asof_checks = !asof_checks;
        r_boundary_checks = !boundary_checks;
        r_history_checks = !history_checks;
        r_point_checks = !point_checks;
        r_spot_checks = !spot_checks;
        r_time_splits = Mx.get metrics Mx.time_splits;
        r_checkpoints = Mx.get metrics Mx.checkpoints;
        r_torn_rebuilt = Mx.get metrics Mx.recovery_torn_pages;
      }
  in
  let failed msg =
    (* flight recorder: dump the engine's last-known state next to the
       failure (best effort — the handle may be mid-crash) *)
    (if cfg.flight_dir <> None then
       try
         match Db.write_flight_report !db ~reason:"torture" with
         | Some path -> act "flight report written: %s" path
         | None -> ()
       with _ -> ());
    Failed
      {
        f_seed = cfg.seed;
        f_op = !ops_done;
        f_commits = !commits;
        f_msg = msg;
        f_trace = trace_list ();
      }
  in
  (* ---- serial driver: the classic one-session loop ------------------ *)
  let serial_main () =
     while !ops_done < cfg.ops do
       (match (!armed, !sched) with
       | None, cp :: rest when !commits >= cp.cp_commit ->
           sched := rest;
           (try initiate cp with Disk.Io_failure _ -> on_io_failure ())
       | _ -> ());
       (match !armed with
       | Some (cp, since) when !commits - since > 300 ->
           (* the aimed-at write never happened; degrade to a plain crash *)
           Disk.lift plan;
           armed := None;
           meta_force := false;
           act "crash point (%s) did not fire within 300 commits; pulling the plug"
             (crash_kind_name cp.cp_kind);
           wal_tail_crash { cp with cp_kind = Crash_wal_tail; cp_torn = false }
       | _ -> ());
       if !meta_force then begin
         (* a checkpoint writes the meta page; make the armed plan fire *)
         meta_force := false;
         tick ();
         try Db.checkpoint !db with Disk.Io_failure _ -> on_io_failure ()
       end;
       (try
          let dice = Rng.int rng 100 in
          if dice < 2 then begin
            tick ();
            Db.checkpoint !db;
            act "op %d: checkpoint" !ops_done
          end
          else if dice < 3 then begin
            tick ();
            match Db.vacuum !db with
            | n -> act "op %d: vacuum removed %d PTT entries" !ops_done n
            | exception Db.Vacuum_blocked _ -> ()
          end
          else if dice < 9 then spot_check ()
          else if cfg.bulk && dice < 16 then bulk_step ()
          else txn_step ()
        with Disk.Io_failure _ -> on_io_failure ());
       if
         cfg.verify_every > 0
         && !commits - !last_verified >= cfg.verify_every
         && !armed = None
       then begin
         last_verified := !commits;
         verify_full ~label:(Printf.sprintf "periodic @%d commits" !commits) ()
       end
     done;
     Disk.lift plan;
     verify_full ~label:"final" ()
  in

  (* ---- concurrent driver: [cfg.sessions] domains --------------------- *)
  (* The multi-session mode alternates {e bursts} with serial
     control work.  A burst hands each of N domains its own session and a
     disjoint key partition (session [s] owns keys [k] with
     [k mod N = s]); each runs a private, seed-derived stream of small
     transactions with read-your-writes checks, collecting its commit
     timestamps and writes.  After the join, the merged commits are fed
     to the oracle sorted by timestamp — the engine issues timestamps,
     switches visibility and appends the commit record in one gate
     section, so timestamp order {e is} a serial order consistent with
     what every session observed, and partitioned keys make each
     session's writes valid against it by construction.  Every commit a
     session saw return must be durable by the join.  Between bursts the
     main domain spot-checks, verifies, and occasionally pulls the plug
     mid-transaction exactly as the serial driver's wal-tail crash does.
     The interleaving (and so the report's counters) is not
     deterministic — only the per-session workloads are — but every
     verification failure is still a real engine or oracle bug. *)
  let concurrent_main () =
    let sessions = max 2 (min cfg.sessions (min 8 cfg.keys_per_table)) in
    let burst = ref 0 in
    let last_verified = ref 0 in
    let crash_budget = ref cfg.crashes in
    while !ops_done < cfg.ops do
      incr burst;
      tick ();
      let budget = min (cfg.ops - !ops_done) (sessions * (12 + Rng.int rng 24)) in
      let per_session = max 1 (budget / sessions) in
      (* burst-start liveness views, one per session, read from the
         oracle before any domain spawns: (table, key) -> current value *)
      let views =
        Array.init sessions (fun sid ->
            let live = Hashtbl.create 32 in
            List.iter
              (fun table ->
                for k = 0 to cfg.keys_per_table - 1 do
                  if k mod sessions = sid then
                    match Model.value_of model ~table ~key:(key_name k) with
                    | Some v -> Hashtbl.replace live (table, key_name k) v
                    | None -> ()
                done)
              table_names;
            live)
      in
      let handle = !db in
      let burst_seed = (cfg.seed * 0x9E3779B1) lxor (!burst * 0x85EBCA7) in
      let worker sid =
        let srng = Rng.create ((burst_seed lxor (sid * 0xC2B2AE3)) land 0x3FFFFFFF) in
        let live = views.(sid) in
        let s = Db.session handle in
        let own_per_table = (cfg.keys_per_table - sid + sessions - 1) / sessions in
        let own_key () = key_name (sid + (sessions * Rng.int srng own_per_table)) in
        let committed = ref [] in
        let s_aborts = ref 0 in
        let s_ops = ref 0 in
        while !s_ops < per_session do
          let size = min (1 + Rng.int srng 4) (per_session - !s_ops) in
          let txn = Db.Session.begin_txn s in
          let overlay : (string * string, string option) Hashtbl.t = Hashtbl.create 8 in
          let writes = ref [] in
          let donec = ref 0 in
          let attempts = ref 0 in
          while !donec < size && !attempts < size * 4 do
            incr attempts;
            let table = List.nth table_names (Rng.int srng cfg.tables) in
            let key = own_key () in
            if not (Hashtbl.mem overlay (table, key)) then begin
              let alive = Hashtbl.mem live (table, key) in
              let value =
                Printf.sprintf "s%d.%d.%d|%s" sid !burst !s_ops
                  (String.make (Rng.int srng 48) 'y')
              in
              let w =
                if alive then
                  match Rng.int srng 100 with
                  | d when d < 55 ->
                      Db.Session.update s txn ~table ~key ~payload:value;
                      { Model.w_table = table; w_key = key; w_value = Some value }
                  | d when d < 80 ->
                      Db.Session.delete s txn ~table ~key;
                      { Model.w_table = table; w_key = key; w_value = None }
                  | _ ->
                      Db.Session.upsert s txn ~table ~key ~payload:value;
                      { Model.w_table = table; w_key = key; w_value = Some value }
                else if Rng.int srng 100 < 70 then begin
                  Db.Session.insert s txn ~table ~key ~payload:value;
                  { Model.w_table = table; w_key = key; w_value = Some value }
                end
                else begin
                  Db.Session.upsert s txn ~table ~key ~payload:value;
                  { Model.w_table = table; w_key = key; w_value = Some value }
                end
              in
              Hashtbl.replace overlay (table, key) w.Model.w_value;
              writes := w :: !writes;
              incr donec;
              incr s_ops;
              if Rng.int srng 3 = 0 then begin
                (* read-your-writes inside the partition: the overlay
                   shadows the burst-start state; no other session can
                   have touched these keys *)
                let rk = own_key () in
                let expect =
                  match Hashtbl.find_opt overlay (table, rk) with
                  | Some v -> v
                  | None -> Hashtbl.find_opt live (table, rk)
                in
                let got = Db.Session.get s txn ~table ~key:rk in
                if got <> expect then
                  raise
                    (Torture_failure
                       (Printf.sprintf
                          "session %d: read of %s/%s inside txn: expected %s got %s" sid
                          table rk
                          (Option.fold ~none:"-" ~some:short expect)
                          (Option.fold ~none:"-" ~some:short got)))
              end
            end
          done;
          if !writes = [] then Db.Session.abort s txn
          else if Rng.int srng 12 = 0 then begin
            Db.Session.abort s txn;
            incr s_aborts
          end
          else
            match Db.Session.commit s txn with
            | Some ts ->
                committed := (ts, txn, List.rev !writes) :: !committed;
                List.iter
                  (fun w ->
                    match w.Model.w_value with
                    | Some v -> Hashtbl.replace live (w.Model.w_table, w.Model.w_key) v
                    | None -> Hashtbl.remove live (w.Model.w_table, w.Model.w_key))
                  (List.rev !writes)
            | None ->
                raise
                  (Torture_failure
                     (Printf.sprintf
                        "session %d: commit of a writing transaction returned no \
                         timestamp"
                        sid))
        done;
        (List.rev !committed, !s_aborts, !s_ops)
      in
      let domains =
        Array.init sessions (fun sid -> Domain.spawn (fun () -> worker sid))
      in
      let results = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains in
      Array.iter (function Error e -> raise e | Ok _ -> ()) results;
      let results = Array.map (function Ok r -> r | Error _ -> assert false) results in
      let all =
        List.sort
          (fun (a, _, _) (b, _, _) -> Ts.compare a b)
          (List.concat_map (fun (c, _, _) -> c) (Array.to_list results))
      in
      Array.iter
        (fun (_, a, o) ->
          aborts := !aborts + a;
          ops_done := !ops_done + o)
        results;
      let prev = ref Ts.zero in
      List.iter
        (fun (ts, txn, writes) ->
          if Ts.compare ts !prev <= 0 then
            fail "burst %d: commit timestamps not strictly increasing (%s after %s)"
              !burst (Ts.to_string ts) (Ts.to_string !prev);
          prev := ts;
          check_durable ~what:(Printf.sprintf "burst %d: commit" !burst) txn ts;
          record_commit ~ts writes)
        all;
      act "burst %d: %d sessions committed %d txns" !burst sessions (List.length all);
      (* between bursts: occasionally pull the plug mid-transaction,
         otherwise spot-check or verify on schedule *)
      if !crash_budget > 0 && Rng.int rng 3 = 0 then begin
        decr crash_budget;
        wal_tail_crash { cp_commit = !commits; cp_kind = Crash_wal_tail; cp_torn = false }
      end
      else if Rng.int rng 3 = 0 then spot_check ();
      if cfg.verify_every > 0 && !commits - !last_verified >= cfg.verify_every then begin
        last_verified := !commits;
        verify_full ~label:(Printf.sprintf "periodic @%d commits" !commits) ()
      end
    done;
    verify_full ~label:"final" ()
  in
  (try
     if cfg.sessions > 1 then concurrent_main () else serial_main ();
     passed ()
   with
  | Torture_failure msg -> failed msg
  | Disk.Io_failure m -> failed ("unhandled injected I/O failure: " ^ m)
  | e -> failed (Printf.sprintf "unexpected exception: %s" (Printexc.to_string e)))

let minimize cfg failure =
  let failing c = match run c with Failed f -> Some f | Passed _ -> None in
  (* 1. truncate the op budget to just past the failing op *)
  let cfg, failure =
    let c = { cfg with ops = min cfg.ops (failure.f_op + 8) } in
    if c.ops < cfg.ops then
      match failing c with Some f -> (c, f) | None -> (cfg, failure)
    else (cfg, failure)
  in
  (* 2. greedily drop crash points, newest first *)
  let sched = ref (schedule_of cfg) in
  let cfg = ref { cfg with schedule = Some !sched } in
  let failure = ref failure in
  let i = ref (List.length !sched - 1) in
  while !i >= 0 do
    let candidate = List.filteri (fun j _ -> j <> !i) !sched in
    let c = { !cfg with schedule = Some candidate } in
    (match failing c with
    | Some f ->
        sched := candidate;
        cfg := c;
        failure := f
    | None -> ());
    decr i
  done;
  (!cfg, !failure)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>torture PASS: seed=%d@,\
     ops=%d commits=%d aborts=%d volatile-drops=%d@,\
     crashes=%d (%s) torn=%d recoveries=%d double=%d@,\
     checks: as-of=%d boundary=%d history=%d point=%d spot=%d@,\
     engine: time-splits=%d checkpoints=%d torn-pages-rebuilt=%d@]" r.r_seed r.r_ops
    r.r_commits r.r_aborts r.r_volatile_drops r.r_crashes
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) r.r_crash_kinds))
    r.r_torn r.r_recoveries r.r_double_recoveries r.r_asof_checks r.r_boundary_checks
    r.r_history_checks r.r_point_checks r.r_spot_checks r.r_time_splits r.r_checkpoints
    r.r_torn_rebuilt

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>torture FAIL: seed=%d (replay: torture --replay --seed %d)@,\
     at op %d:@,%s@,recent actions:@,%a@]" f.f_seed f.f_seed f.f_op f.f_msg
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
         Format.fprintf ppf "  %s" s))
    f.f_trace

let describe_config cfg =
  let sched = schedule_of cfg in
  Printf.sprintf
    "seed=%d ops=%d crashes=%d tables=%dx%d page=%dB pool=%d ckpt-every=%d \
     verify-every=%d verify-limit=%d bulk=%b sessions=%d schedule=[%s]"
    cfg.seed cfg.ops cfg.crashes cfg.tables cfg.keys_per_table cfg.page_size
    cfg.pool_capacity cfg.auto_checkpoint_every
    cfg.verify_every cfg.verify_limit cfg.bulk cfg.sessions
    (String.concat "; "
       (List.map
          (fun cp ->
            Printf.sprintf "@%d %s%s" cp.cp_commit (crash_kind_name cp.cp_kind)
              (if cp.cp_torn then "+torn" else ""))
          sched))
