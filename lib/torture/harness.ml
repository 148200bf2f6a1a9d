(* The torture harness: a seed-driven workload generator, a crash
   scheduler aimed at the engine's most delicate write paths, and a
   verification loop that checks every answer the engine can give against
   the linearized oracle in {!Model}.

   One loop runs every mode: serial ops over all keys, or
   bursts of [sessions] sessions over disjoint key partitions, started
   as seeded {!Fibers} (or, for a cross-check, on real domains).
   Everything derives from the seed: the workload PRNGs, the crash
   schedule (seed lxor a salt), each crash point's private countdown
   (seed mixed with the point's position), the fibers' interleaving.
   The clock is logical and ticks a fixed quantum per transaction; lock
   timeouts fall in the fibers' virtual time.  No wall time, no OS
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
  | Crash_ptt_post

let crash_kind_name = function
  | Crash_wal_tail -> "wal-tail"
  | Crash_data_write -> "data-write"
  | Crash_history_write -> "history-write"
  | Crash_meta_write -> "meta-write"
  | Crash_recovery -> "recovery"
  | Crash_buffer_write -> "buffer-write"
  | Crash_ptt_post -> "ptt-post"

let all_crash_kinds =
  [ Crash_wal_tail; Crash_data_write; Crash_history_write; Crash_meta_write; Crash_recovery;
    Crash_buffer_write; Crash_ptt_post ]

let kind_index k = Option.get (List.find_index (( = ) k) all_crash_kinds)

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
  log : (string -> unit) option;
  flight_dir : string option;
}

let default =
  {
    seed = 1; ops = 10_000; crashes = 60; tables = 2; keys_per_table = 48; page_size = 1024;
    pool_capacity = 12; auto_checkpoint_every = 40; verify_every = 0; verify_limit = 0;
    bulk = false; sessions = 1; sabotage = None; log = None; flight_dir = None;
  }

(* The crash schedule: [crashes] points spread over the expected commit
   count (ops / mean txn size, minus aborts), kinds cycling through a
   per-block shuffle of every kind, so each appears once in every window
   of that many crashes. *)
let schedule_of cfg =
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
      let torn =
        match kind with Crash_wal_tail | Crash_ptt_post -> false | _ -> Rng.bool rng
      in
      out := { cp_commit = !at; cp_kind = kind; cp_torn = torn } :: !out
    done;
    List.rev !out
  end

type report = {
  r_seed : int;
  mutable r_ops : int;
  mutable r_commits : int;
  mutable r_aborts : int;
  mutable r_crashes : int;
  mutable r_crash_kinds : (string * int) list;
  mutable r_torn : int;
  mutable r_recoveries : int;
  mutable r_double_recoveries : int;
  mutable r_volatile_drops : int;
  mutable r_asof_checks : int;
  mutable r_boundary_checks : int;
  mutable r_history_checks : int;
  mutable r_point_checks : int;
  mutable r_spot_checks : int;
  mutable r_time_splits : int;
  mutable r_checkpoints : int;
  mutable r_torn_rebuilt : int;
}

type failure = {
  f_seed : int;
  f_op : int;
  f_commits : int;
  f_msg : string;
  f_trace : string list;
  f_replay : string;
}

type outcome = Passed of report | Failed of failure

(* The immediate predecessor of [ts] in the (ttime, sn) lattice: the
   last instant at which a commit stamped [ts] must NOT yet be visible. *)
let just_before ts =
  let sn = Ts.sn ts in
  if sn > 0 then Ts.make ~ttime:(Ts.ttime ts) ~sn:(sn - 1)
  else Ts.make ~ttime:(Int64.sub (Ts.ttime ts) 1L) ~sn:0xFFFFFFFF

let replay_command cfg =
  Printf.sprintf "imdb torture --seed %d --ops %d --crashes %d%s%s --replay" cfg.seed cfg.ops
    cfg.crashes
    (if cfg.bulk then " --bulk" else "")
    (if cfg.sessions > 1 then Printf.sprintf " --sessions %d" cfg.sessions else "")

let torture_schema =
  Imdb_core.Schema.make
    [
      { Imdb_core.Schema.col_name = "k"; col_type = Imdb_core.Schema.T_string };
      { Imdb_core.Schema.col_name = "v"; col_type = Imdb_core.Schema.T_string };
    ]

let short v = if String.length v > 16 then String.sub v 0 16 ^ "..." else v

(* A plug pulled by a session: the run crashes at once, outside it. *)
exception Pull of crash_point

(* One session of the workload: its PRNG, its key partition (keys [k] with
   [k mod stride = sid]), the transaction a crash may interrupt, and the
   commits it saw return that are not yet in the oracle, with their
   writes by key, through which it reads its partition until the merge. *)
type session = {
  sid : int;
  stride : int;
  srng : Rng.t;
  begin_txn : unit -> E.txn;
  quota : int; (* write ops it may run; [base] had run before it began *)
  base : int;
  mutable s_ops : int;
  mutable s_aborts : int;
  mutable inflight : (E.txn * Model.write list) option;
  mutable returned : (Ts.t * int * Model.write list) list; (* newest first *)
  seen : (string * string, string option) Hashtbl.t;
}

let run ?spawn cfg =
  let rng = Rng.create cfg.seed in
  let clock = Clock.create_logical () in
  let plan = Disk.never_fail () in
  (* Every page write and every log sync is a yield under the fiber
     scheduler.  The log device holds appended bytes back until the sync
     (the platter gets them only then), so a plug pulled at that yield
     loses the whole batch: no commit in it was acknowledged. *)
  let disk =
    let d = Disk.failing ~plan (Disk.in_memory ~page_size:cfg.page_size ()) in
    { d with Disk.write_page = (fun id b -> Fibers.yield (); d.Disk.write_page id b) }
  in
  let platter = Wal.Device.in_memory () and unsynced = Buffer.create 4096 in
  let log_device =
    {
      platter with
      Wal.Device.append = Buffer.add_bytes unsynced;
      sync =
        (fun () ->
          Fibers.yield ();
          platter.Wal.Device.append (Buffer.to_bytes unsynced);
          Buffer.clear unsynced;
          platter.Wal.Device.sync ());
    }
  in
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

  (* the report is the run's tally, kept as the run goes *)
  let r =
    {
      r_seed = cfg.seed; r_ops = 0; r_commits = 0; r_aborts = 0; r_crashes = 0;
      r_crash_kinds = List.map (fun k -> (crash_kind_name k, 0)) all_crash_kinds; r_torn = 0;
      r_recoveries = 0; r_double_recoveries = 0; r_volatile_drops = 0; r_asof_checks = 0;
      r_boundary_checks = 0; r_history_checks = 0; r_point_checks = 0; r_spot_checks = 0;
      r_time_splits = 0; r_checkpoints = 0; r_torn_rebuilt = 0;
    }
  in
  let commit_seq = ref 0 in

  (* the sessions whose commits are not yet merged into the oracle *)
  let live : session list ref = ref [] in
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
  let record_commit (ts, tag, writes) =
    incr commit_seq;
    r.r_commits <- r.r_commits + 1;
    let ts, writes =
      match cfg.sabotage with
      | Some (Skew_stamp n) when n > 0 && !commit_seq mod n = 0 -> (just_before ts, writes)
      | Some (Drop_write n) when n > 0 && !commit_seq mod n = 0 && writes <> [] ->
          (ts, List.tl writes)
      | _ -> (ts, writes)
    in
    Model.record model ~ts ~tag writes
  in

  let tick () = Clock.advance clock 20L in

  let scan_now table =
    let out = ref [] in
    Db.exec !db (fun txn -> Db.scan !db txn ~table (fun k v -> out := (k, v) :: !out));
    List.rev !out
  in

  (* The first key two sorted states disagree on, and how. *)
  let rec first_diff want got =
    match (want, got) with
    | [], [] -> None
    | (k, v) :: _, [] -> Some (k, Printf.sprintf "engine missing %s=%s" k (short v))
    | [], (k, v) :: _ -> Some (k, Printf.sprintf "engine has extra %s=%s" k (short v))
    | (k1, v1) :: ta, (k2, v2) :: tb ->
        if k1 = k2 && v1 = v2 then first_diff ta tb
        else if k1 = k2 then Some (k1, Printf.sprintf "%s: model=%s engine=%s" k1 (short v1) (short v2))
        else if k1 < k2 then Some (k1, Printf.sprintf "engine missing %s=%s" k1 (short v1))
        else Some (k2, Printf.sprintf "engine has extra %s=%s" k2 (short v2))
  in
  let state_diff ~what ~table want got =
    Option.map
      (fun (key, diff) ->
        ( key,
          Printf.sprintf "%s: table %s: model has %d rows, engine %d; first diff: %s" what table
            (List.length want) (List.length got) diff ))
      (first_diff want got)
  in
  let compare_states ~what ~table want got =
    Option.iter (fun (_, msg) -> fail "%s" msg) (state_diff ~what ~table want got)
  in

  (* Evidence for a failed AS OF check of [key] at [ts]: the model's
     commits that wrote the key (index, timestamp, size, value) and the
     engine's [Db.history] of it, each cut to the entries nearest [ts].
     Read only after the check failed, so a passing run is undisturbed. *)
  let witnesses ~table ~key ts =
    let value = Option.fold ~none:"deleted" ~some:short in
    (* newest first: the two entries just after [ts], the four at or before *)
    let near entries =
      let after, upto = List.partition (fun (t, _) -> Ts.compare t ts > 0) entries in
      let after = List.filteri (fun i _ -> i >= List.length after - 2) after in
      String.concat ", " (List.map snd (after @ List.filteri (fun i _ -> i < 4) upto))
    in
    let model_writes =
      List.concat
        (List.mapi
           (fun i (c : Model.commit) ->
             List.filter_map
               (fun (w : Model.write) ->
                 if w.w_table = table && w.w_key = key then
                   Some
                     ( c.c_ts,
                       Printf.sprintf "#%d at %s (%d writes) %s" i (Ts.to_string c.c_ts)
                         (List.length c.c_writes) (value w.w_value) )
                 else None)
               c.c_writes)
           (Model.commits model))
    in
    let history = Db.exec !db (fun txn -> Db.history !db txn ~table ~key) in
    Printf.sprintf "\n  model commits writing %s/%s: %s\n  engine history of it: %s" table key
      (near (List.rev model_writes))
      (near (List.map (fun (t, v) -> (t, Ts.to_string t ^ " " ^ value v)) history))
  in

  (* One AS OF state against [state], the model's rows as of [ts], in
     one [Db.as_of ts] transaction: the full scan, then point reads of two
     keys — one drawn from the key space, present or not at [ts], and one
     never written.  The draw has its own seeded stream, so verification
     never shifts the workload's.  A failure names the first key that
     differs and adds its {!witnesses}. *)
  let sample_rng = Rng.create (cfg.seed lxor 0x9017) in
  let check_state ~what ~table ts state =
    let keys =
      [ key_name (Rng.int sample_rng cfg.keys_per_table); key_name cfg.keys_per_table ]
    in
    let mismatch =
      Db.as_of !db ts (fun txn ->
          let out = ref [] in
          Db.scan !db txn ~table (fun k v -> out := (k, v) :: !out);
          match state_diff ~what ~table state (List.rev !out) with
          | Some _ as diff -> diff
          | None ->
              List.find_map
                (fun key ->
                  let want = List.assoc_opt key state in
                  let got = Db.get !db txn ~table ~key in
                  if got <> want then
                    Some
                      ( key,
                        Printf.sprintf "%s: point read of %s/%s: model=%s engine=%s" what table
                          key
                          (Option.fold ~none:"-" ~some:short want)
                          (Option.fold ~none:"-" ~some:short got) )
                  else begin
                    r.r_point_checks <- r.r_point_checks + 1;
                    None
                  end)
                keys)
    in
    Option.iter (fun (key, msg) -> fail "%s%s" msg (witnesses ~table ~key ts)) mismatch
  in

  (* Full verification: current state, the state as of EVERY commit
     timestamp (subject to [verify_limit]) with point reads of a key
     sample there, boundary states just below commit timestamps, and
     every key's version history. *)
  let verify_full ~label () =
    let unknown_tids () =
      Imdb_tstamp.Lazy_stamper.unknown_tids (Db.engine !db).E.stamper
    in
    let unknown_before = unknown_tids () in
    List.iter
      (fun table ->
        compare_states ~what:(label ^ ": current state") ~table
          (Model.current_state model ~table)
          (scan_now table);
        let n = Model.commit_count model in
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
              r.r_asof_checks <- r.r_asof_checks + 1;
              (* just below the commit timestamp the commit must be
                 invisible: catches stamps leaking backward in time *)
              if !idx land 3 = 0 then begin
                let what =
                  Printf.sprintf "%s: AS OF just below %s (commit #%d)" label
                    (Ts.to_string ts) !idx
                in
                check_state ~what ~table (just_before ts) !prev;
                r.r_boundary_checks <- r.r_boundary_checks + 1
              end
            end;
            prev := state);
        let want_h = Model.histories model ~table in
        for k = 0 to cfg.keys_per_table - 1 do
          let key = key_name k in
          let want = Option.value (Hashtbl.find_opt want_h key) ~default:[] in
          let got = Db.exec !db (fun txn -> Db.history !db txn ~table ~key) in
          if not (List.equal (fun (t1, v1) (t2, v2) -> Ts.compare t1 t2 = 0 && v1 = v2) want got)
          then
            fail "%s: history of %s/%s: model has %d versions, engine %d" label table key
              (List.length want) (List.length got);
          r.r_history_checks <- r.r_history_checks + 1
        done)
      table_names;
    (* every unstamped version the reads met must have resolved: a TID
       with neither a VTT nor a PTT mapping lost its commit time *)
    if unknown_tids () > unknown_before then
      fail "%s: %d TIDs resolved to no mapping" label (unknown_tids () - unknown_before)
  in

  (* ---- sessions ----------------------------------------------------- *)
  let new_session ~sid ~stride ~srng ~quota ~begin_txn =
    {
      sid; stride; srng; begin_txn; quota; base = r.r_ops; s_ops = 0; s_aborts = 0;
      inflight = None; returned = []; seen = Hashtbl.create 16;
    }
  in
  let tag s = s.base + s.s_ops in
  let who s = if s.stride = 1 then "" else Printf.sprintf "s%d " s.sid in
  (* commits that returned, merged or not: what paces the crash schedule *)
  let live_commits () =
    List.fold_left (fun n s -> n + List.length s.returned) r.r_commits !live
  in
  let value_of s ~table ~key =
    match Hashtbl.find_opt s.seen (table, key) with
    | Some v -> v
    | None -> Model.value_of model ~table ~key
  in
  let own_key s =
    key_name
      (s.sid + (s.stride * Rng.int s.srng ((cfg.keys_per_table - s.sid + s.stride - 1) / s.stride)))
  in

  (* Fold the live sessions into the oracle: the commits that returned
     and, at a crash, every interrupted commit whose record was synced —
     by its own flush ([tx_durable]) or, as the platter says, by a
     leader's sync it had not yet woken from; any other interrupted
     transaction is a loser recovery must roll back.  All in timestamp
     order: the engine issues timestamps, switches visibility and
     appends the commit record in one gate section, so timestamp order
     is a serial order consistent with what every session observed, and
     partitioned keys make each session's writes valid against it. *)
  let on_platter txn =
    let found = ref false in
    Wal.iter_from (Wal.open_device platter) ~from_lsn:txn.E.tx_last_lsn (fun _ -> function
      | Imdb_wal.Log_record.Commit { tid; _ } -> found := !found || Imdb_clock.Tid.equal tid txn.E.tx_tid
      | _ -> ());
    !found
  in
  let merge ~crashed =
    let interrupted s =
      match s.inflight with
      | Some ({ E.tx_commit_ts = Some ts; _ } as txn, writes)
        when crashed && (txn.E.tx_durable || on_platter txn) ->
          act "crash: %sin-flight commit ts=%s was durable; adopted" (who s) (Ts.to_string ts);
          [ (ts, tag s, writes) ]
      | _ -> []
    in
    List.concat_map (fun s -> interrupted s @ s.returned) !live
    |> List.sort (fun (a, _, _) (b, _, _) -> Ts.compare a b)
    |> List.iter record_commit;
    List.iter
      (fun s ->
        r.r_ops <- r.r_ops + s.s_ops;
        r.r_aborts <- r.r_aborts + s.s_aborts)
      !live;
    live := []
  in

  (* ---- workload ----------------------------------------------------- *)
  let gen_value s =
    Printf.sprintf "v%d.%d|%s" s.sid (tag s) (String.make (Rng.int s.srng 64) 'x')
  in

  (* [Db.commit] may only return once the commit record is durable; the
     run fails on any returned commit not yet acknowledged. *)
  let committed s txn writes ~what =
    match Db.commit !db txn with
    | Some ts ->
        s.inflight <- None;
        if not txn.E.tx_durable then
          fail "%s ts=%s returned before its commit record was durable" what (Ts.to_string ts);
        s.returned <- (ts, tag s, writes) :: s.returned;
        List.iter (fun w -> Hashtbl.replace s.seen (w.Model.w_table, w.Model.w_key) w.w_value) writes;
        ts
    | None -> fail "%s of a writing transaction returned no timestamp" what
  in

  (* One transaction on distinct keys of the session's partition, its
     writes valid against the session's view: 1–4 inserts of absent keys
     and updates, deletes or upserts of present ones, with inline
     read-your-writes checks, about one in twelve deliberately aborted;
     or, [bulk], 16–48 upserts shaped like `imdb load` batches, filling
     the ingest buffer fast enough to force mid-transaction flushes so
     crashes land on half-flushed buffers.  [leave_open] stops after the
     writes, leaving the transaction in [inflight] for a plug pull. *)
  let txn_step ?(leave_open = false) ?(bulk = false) s =
    let budget = s.quota - s.s_ops in
    if budget > 0 then begin
      let size = min (if bulk then 16 + Rng.int s.srng 33 else 1 + Rng.int s.srng 4) budget in
      tick ();
      let txn = s.begin_txn () in
      s.inflight <- Some (txn, []);
      let writes = ref [] in
      let overlay : (string * string, string option) Hashtbl.t = Hashtbl.create 8 in
      let donec = ref 0 in
      let attempts = ref 0 in
      while !donec < size && !attempts < size * 4 do
        incr attempts;
        let table = List.nth table_names (Rng.int s.srng cfg.tables) in
        let key = own_key s in
        if not (Hashtbl.mem overlay (table, key)) then begin
          let value = gen_value s in
          let put write = write !db txn ~table ~key ~payload:value; Some value in
          let w_value =
            if bulk then put Db.upsert
            else if value_of s ~table ~key <> None then
              match Rng.int s.srng 100 with
              | d when d < 55 -> put Db.update
              | d when d < 80 -> Db.delete !db txn ~table ~key; None
              | _ -> put Db.upsert
            else if Rng.int s.srng 100 < 70 then put Db.insert
            else put Db.upsert
          in
          Hashtbl.replace overlay (table, key) w_value;
          writes := { Model.w_table = table; w_key = key; w_value } :: !writes;
          s.inflight <- Some (txn, List.rev !writes);
          incr donec;
          s.s_ops <- s.s_ops + 1;
          if (not bulk) && Rng.int s.srng 3 = 0 then begin
            (* read check: own writes shadow the committed state *)
            let rk = own_key s in
            let expect =
              match Hashtbl.find_opt overlay (table, rk) with
              | Some v -> v
              | None -> value_of s ~table ~key:rk
            in
            let got = Db.get !db txn ~table ~key:rk in
            if got <> expect then
              fail "%sop %d: read of %s/%s inside txn: model=%s engine=%s" (who s) (tag s) table
                rk
                (Option.fold ~none:"-" ~some:short expect)
                (Option.fold ~none:"-" ~some:short got)
          end
        end
      done;
      if leave_open then ()
      else if !writes = [] then begin
        Db.abort !db txn;
        s.inflight <- None
      end
      else if (not bulk) && Rng.int s.srng 12 = 0 then begin
        Db.abort !db txn;
        s.s_aborts <- s.s_aborts + 1;
        s.inflight <- None;
        act "%sop %d: abort (%d writes rolled back)" (who s) (tag s) (List.length !writes)
      end
      else
        let what = Printf.sprintf "%sop %d: %scommit" (who s) (tag s) (if bulk then "bulk " else "") in
        let ts = committed s txn (List.rev !writes) ~what in
        act "%s ts=%s (%d writes)" what (Ts.to_string ts) (List.length !writes)
    end
  in

  let spot_check s =
    let n = Model.commit_count model in
    if n > 0 then begin
      let i = Rng.int s.srng n in
      let c = List.nth (Model.commits model) i in
      let table = List.nth table_names (Rng.int s.srng cfg.tables) in
      check_state
        ~what:(Printf.sprintf "spot check AS OF %s (commit #%d)" (Ts.to_string c.Model.c_ts) i)
        ~table c.Model.c_ts
        (Model.state_at model ~table c.Model.c_ts);
      r.r_spot_checks <- r.r_spot_checks + 1
    end
  in

  (* ---- crashes ------------------------------------------------------ *)
  let point_rng cp =
    Rng.create ((cfg.seed * 1_000_003) lxor (cp.cp_commit * 7919) lxor kind_index cp.cp_kind)
  in

  (* Power loss in the middle of a log append leaves part of a frame past
     the durable log: a strict prefix of a real frame (here the log's
     first, whose header promises more bytes than follow) or garbage.
     Recovery's pass must end the log before it.  The choice comes from
     the point's own PRNG, so the crash schedule does not move. *)
  let tear_log_tail cp =
    let prng = point_rng cp and dev = platter in
    let torn =
      if Rng.bool prng then
        let frame = 8 + Imdb_util.Codec.get_u32 (dev.Wal.Device.read ~pos:0 ~len:4) 0 in
        dev.Wal.Device.read ~pos:0 ~len:(1 + Rng.int prng (frame - 1))
      else Bytes.init (1 + Rng.int prng 32) (fun _ -> Char.chr (Rng.int prng 256))
    in
    dev.Wal.Device.append torn;
    act "crash: %d torn bytes past the durable log" (Bytes.length torn)
  in

  let sched = ref (schedule_of cfg) in
  let armed : (crash_point * int) option ref = ref None in
  (* a checkpoint the next op boundary must run for an initiated point *)
  let forced : (unit -> unit) option ref = ref None in

  (* The crash proper, outside every session.  Every commit that returned
     is durable (checked as it returned), so once the live sessions
     merge the oracle holds exactly what must survive.  Volatile state
     evaporates — the log's tail, the log device's unsynced bytes, the
     abandoned sessions and their handle — and the devices persist.  The
     crash recovers (twice, for Crash_recovery) and [verify_full] judges
     the outcome. *)
  let do_crash cp =
    merge ~crashed:true;
    r.r_crashes <- r.r_crashes + 1;
    let name = crash_kind_name cp.cp_kind in
    r.r_crash_kinds <-
      List.map (fun (k, n) -> (k, if k = name then n + 1 else n)) r.r_crash_kinds;
    if cp.cp_torn then r.r_torn <- r.r_torn + 1;
    Disk.lift plan;
    Wal.crash_volatile (Db.engine !db).E.wal;
    Imdb_obs.Monitor.stop (Db.monitor !db);
    Buffer.clear unsynced;
    if cp.cp_kind = Crash_wal_tail then tear_log_tail cp;
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
            r.r_double_recoveries <- r.r_double_recoveries + 1;
            act "crash: recovery itself crashed; recovering again";
            reopen ()
      end
      else reopen ()
    in
    db := new_db;
    r.r_recoveries <- r.r_recoveries + 1;
    act "crash #%d (%s%s): recovered; model has %d commits" r.r_crashes
      (crash_kind_name cp.cp_kind)
      (if cp.cp_torn then ", torn page" else "")
      (Model.commit_count model);
    verify_full ~label:(Printf.sprintf "post-recovery #%d" r.r_crashes) ()
  in

  (* Power loss mid-transaction: at a serial op's boundary, open a
     transaction and pull the plug while its newest record is volatile (a
     write can flush the log itself, so one left fully durable is rolled
     back and another tried); at a fiber's yield, the sessions' own open
     transactions are what it interrupts. *)
  let wal_tail_crash at cp =
    let volatile s =
      match s.inflight with
      | Some (txn, _) ->
          Int64.compare txn.E.tx_last_lsn (Wal.flushed_lsn (Db.engine !db).E.wal) >= 0
      | None -> false
    in
    let rec open_txn s tries =
      txn_step ~leave_open:true s;
      match s.inflight with
      | Some (txn, _) when tries > 1 && not (volatile s) ->
          Db.abort !db txn;
          s.inflight <- None;
          open_txn s (tries - 1)
      | _ -> ()
    in
    Option.iter (fun s -> open_txn s 4) at;
    if List.exists volatile !live then begin
      r.r_volatile_drops <- r.r_volatile_drops + 1;
      act "crash point: wal-tail with an open transaction's record volatile"
    end
    else act "crash point: wal-tail with no volatile transaction record";
    raise (Pull cp)
  in

  (* The checkpoint's posting.  Odd firings pull the plug inside the
     checkpoint, right after the posting group's append and before the
     checkpoint record — so the meta page still names the previous
     checkpoint — with the group either still in the volatile tail or
     flushed.  Even firings let the checkpoint finish and pull the plug
     before anything reads a posted mapping: recovery starts past those
     Commit records, so only the PTT can answer for them. *)
  let ptt_post_crash cp =
    let nth = List.assoc (crash_kind_name Crash_ptt_post) r.r_crash_kinds in
    tick ();
    if nth land 1 = 0 then begin
      let eng = Db.engine !db in
      let flush = Rng.bool (point_rng cp) in
      eng.E.after_ptt_post <-
        (fun () ->
          eng.E.after_ptt_post <- ignore;
          if flush then Wal.flush eng.E.wal;
          raise (Disk.Io_failure "ptt-post"));
      armed := Some (cp, live_commits ());
      act "crash point: ptt-post inside the checkpoint (posting group %s)"
        (if flush then "flushed" else "volatile");
      Db.checkpoint !db
    end
    else begin
      Db.checkpoint !db;
      act "crash point: ptt-post after the checkpoint's meta write";
      raise (Pull cp)
    end
  in

  let arm cp ?(after = 0) target what =
    Disk.arm plan ~tear:cp.cp_torn ~target ~after ();
    armed := Some (cp, live_commits ());
    act "crash point armed: %s%s" (crash_kind_name cp.cp_kind)
      ((if cp.cp_torn then " (torn)" else "") ^ what)
  in
  let initiate at cp =
    match cp.cp_kind with
    | Crash_ptt_post ->
        if at = None then forced := Some (fun () -> ptt_post_crash cp) else ptt_post_crash cp
    | Crash_wal_tail -> wal_tail_crash at cp
    | Crash_recovery -> raise (Pull cp)
    | Crash_data_write ->
        arm cp ~after:(Rng.int (point_rng cp) 25) (Disk.Writes_of_type [ Page.P_data ]) ""
    | Crash_history_write ->
        arm cp (Disk.Writes_of_type [ Page.P_history_compressed ]) " (mid-time-split)"
    | Crash_meta_write ->
        (* a checkpoint writes the meta page; make the armed plan fire *)
        forced := Some (fun () -> tick (); Db.checkpoint !db);
        arm cp (Disk.Writes_to_page Page.no_page) " (mid-checkpoint)"
    | Crash_buffer_write ->
        arm cp (Disk.Writes_of_type [ Page.P_msg_buffer ]) " (ingest buffer page)"
  in

  let on_io_failure () =
    match !armed with
    | Some (cp, _) ->
        armed := None;
        forced := None;
        do_crash cp
    | None -> fail "unexpected injected I/O failure with no armed crash point"
  in

  (* ---- the run loop ------------------------------------------------- *)
  let due () =
    match (!armed, !sched) with
    | None, cp :: _ -> live_commits () >= cp.cp_commit
    | Some _, _ -> true
    | None, [] -> false
  in

  (* Crash work due at a yield ([at = None]) or at a serial op's
     boundary: a scheduled point to initiate, or an armed point that never
     fired to degrade to a plain plug pull.  At yields a due point first
     waits out up to 63 more, drawn from its own PRNG, so the plug comes
     out wherever the sessions stand, not just after a commit. *)
  let lag = ref (-1) in
  let crash_due at =
    (match (!armed, !sched) with
    | None, cp :: rest when live_commits () >= cp.cp_commit ->
        if at = None && !lag < 0 then lag := Rng.int (point_rng cp) 64;
        if at <> None || !lag = 0 then begin
          lag := -1;
          sched := rest;
          initiate at cp
        end
        else decr lag
    | _ -> ());
    match !armed with
    | Some (cp, since) when live_commits () - since > 300 ->
        (* the aimed-at write never happened; degrade to a plain crash *)
        Disk.lift plan;
        armed := None;
        forced := None;
        act "crash point (%s) did not fire within 300 commits; pulling the plug"
          (crash_kind_name cp.cp_kind);
        wal_tail_crash at { cp with cp_kind = Crash_wal_tail; cp_torn = false }
    | _ -> ()
  in

  (* One workload op at a session's boundary: crash work first — a serial
     op's due points (fibers meet theirs at every yield), a [forced]
     checkpoint — then a draw from the op mix. *)
  let step s =
    Fibers.yield ();
    if s.stride = 1 then crash_due (Some s);
    Option.iter
      (fun f ->
        forced := None;
        f ())
      !forced;
    let dice = Rng.int s.srng 100 in
    if dice < 2 then begin
      tick ();
      Db.checkpoint !db;
      act "%sop %d: checkpoint" (who s) (tag s)
    end
    else if dice < 3 then begin
      tick ();
      match Db.vacuum !db with
      | n -> act "%sop %d: vacuum removed %d PTT entries" (who s) (tag s) n
      | exception Db.Vacuum_blocked _ -> ()
    end
    else if dice < 9 then spot_check s
    else if cfg.bulk && dice < 16 then txn_step ~bulk:true s
    else txn_step s
  in

  (* Session bodies start as seeded fibers, whose every yield may pull
     the plug, unless [spawn] starts them on domains, which leave crash
     points to serial ops between bursts. *)
  let fibers = spawn = None in
  let burst_no = ref 0 in
  let spawn =
    match spawn with
    | Some f -> f
    | None ->
        fun bodies ->
          Fibers.run ~at_yield:(fun () -> crash_due None)
            ~rng:(Rng.create (cfg.seed lxor (!burst_no * 0x5C4ED)))
            bodies
  in
  (* A burst: [cfg.sessions] sessions, each with a seed-derived stream
     over its key partition, run to their quotas (or to a crash).  The
     quota does not depend on the op budget, so a run the minimizer cuts
     short replays every burst up to the cut (the last burst may run
     past the budget). *)
  let burst () =
    incr burst_no;
    let n = cfg.sessions in
    let per = 12 + Rng.int rng 24 in
    let burst_seed = (cfg.seed * 0x9E3779B1) lxor (!burst_no * 0x85EBCA7) in
    let ss =
      Array.init n (fun sid ->
          let h = Db.session !db in
          new_session ~sid ~stride:n ~quota:per
            ~srng:(Rng.create ((burst_seed lxor (sid * 0xC2B2AE3)) land 0x3FFFFFFF))
            ~begin_txn:(fun () -> Db.Session.begin_txn h))
    in
    live := Array.to_list ss;
    spawn (Array.map (fun s () -> while s.s_ops < s.quota do step s done) ss);
    act "burst %d: %d sessions committed %d txns" !burst_no n
      (List.fold_left (fun c s -> c + List.length s.returned) 0 !live)
  in
  let serial_op () =
    let s =
      new_session ~sid:0 ~stride:1 ~srng:rng ~quota:(cfg.ops - r.r_ops) ~begin_txn:(fun () ->
          Db.begin_txn !db)
    in
    live := [ s ];
    step s
  in

  let last_verified = ref 0 in
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
        f_op = r.r_ops;
        f_commits = r.r_commits;
        f_msg = msg;
        f_trace = trace_list ();
        f_replay = replay_command cfg;
      }
  in
  try
    while r.r_ops < cfg.ops do
      (try
         if cfg.sessions > 1 && (fibers || not (due ())) then burst () else serial_op ();
         merge ~crashed:false
       with
      | Pull cp -> do_crash cp
      | Disk.Io_failure _ -> on_io_failure ());
      if cfg.verify_every > 0 && r.r_commits - !last_verified >= cfg.verify_every && !armed = None
      then begin
        last_verified := r.r_commits;
        verify_full ~label:(Printf.sprintf "periodic @%d commits" r.r_commits) ()
      end
    done;
    Disk.lift plan;
    verify_full ~label:"final" ();
    r.r_time_splits <- Mx.get metrics Mx.time_splits;
    r.r_checkpoints <- Mx.get metrics Mx.checkpoints;
    r.r_torn_rebuilt <- Mx.get metrics Mx.recovery_torn_pages;
    Passed r
  with
  | Torture_failure msg -> failed msg
  | Disk.Io_failure m -> failed ("unhandled injected I/O failure: " ^ m)
  | e -> failed (Printf.sprintf "unexpected exception: %s" (Printexc.to_string e))

(* Shrink along the two knobs a replay line names, [ops] and [crashes],
   deriving the schedule again for every candidate, so the config
   returned is whole and its replay line reproduces the failure.  Cut
   the op budget to just past the failing op, then take the fewest crash
   points that still fail, and repeat while the crash count shrinks. *)
let minimize cfg failure =
  let failing c = match run c with Failed f -> Some f | Passed _ -> None in
  let rec shrink cfg failure =
    let cfg, failure =
      let cut = { cfg with ops = min cfg.ops (failure.f_op + 8) } in
      if cut.ops < cfg.ops then
        match failing cut with Some f -> (cut, f) | None -> (cfg, failure)
      else (cfg, failure)
    in
    let rec fewer n =
      if n >= cfg.crashes then (cfg, failure)
      else
        let c = { cfg with crashes = n } in
        match failing c with Some f -> shrink c f | None -> fewer (n + 1)
    in
    fewer 0
  in
  shrink cfg failure

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
    "@[<v>torture FAIL: seed=%d (replay: %s)@,\
     at op %d:@,%s@,recent actions:@,%a@]" f.f_seed f.f_replay f.f_op f.f_msg
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
