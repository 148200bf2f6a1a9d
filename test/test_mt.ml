(* Multi-session execution: the session layer must add nothing and break
   nothing.

   Two claims, tested separately:
   - sessions = 1 is bit-identical to the plain Db API: the same
     deterministic workload driven through [Db.Session] and through the
     direct calls produces byte-for-byte the same WAL, the same commit
     timestamps, the same final state and the same histories.  The gate,
     the blocking lock path and the group-commit follower protocol are
     pure pass-throughs when uncontended.
   - concurrent execution is equivalent to a serial order: the torture
     harness's concurrent mode (QCheck'd over seeds, at 2 and 4
     sessions) merges every domain's commits into the linearized Model
     oracle in timestamp order and verifies every AS OF state, boundary
     and history against it — with crash points pulling the plug
     mid-transaction along the way.  A Passed outcome IS the
     equivalence claim; any nonserializable interleaving the engine
     admitted would surface as an oracle mismatch. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module H = Imdb_torture.Harness
module Ts = Imdb_clock.Timestamp
module Rng = Imdb_util.Rng

(* --- sessions=1 ≡ plain API, bit for bit -------------------------------- *)

type driver = {
  d_begin : unit -> Db.txn;
  d_commit : Db.txn -> Ts.t option;
  d_upsert : Db.txn -> key:string -> payload:string -> unit;
  d_delete : Db.txn -> key:string -> unit;
  d_get : Db.txn -> key:string -> string option;
}

let direct_driver db =
  {
    d_begin = (fun () -> Db.begin_txn db);
    d_commit = (fun txn -> Db.commit db txn);
    d_upsert = (fun txn ~key ~payload -> Db.upsert db txn ~table:"t" ~key ~payload);
    d_delete = (fun txn ~key -> Db.delete db txn ~table:"t" ~key);
    d_get = (fun txn ~key -> Db.get db txn ~table:"t" ~key);
  }

let session_driver db =
  let s = Db.session db in
  {
    d_begin = (fun () -> Db.Session.begin_txn s);
    d_commit = (fun txn -> Db.Session.commit s txn);
    d_upsert = (fun txn ~key ~payload -> Db.Session.upsert s txn ~table:"t" ~key ~payload);
    d_delete = (fun txn ~key -> Db.Session.delete s txn ~table:"t" ~key);
    d_get = (fun txn ~key -> Db.Session.get s txn ~table:"t" ~key);
  }

let schema =
  S.make [ { S.col_name = "k"; col_type = S.T_string }; { S.col_name = "v"; col_type = S.T_string } ]

(* A seeded workload of small transactions — upserts, deletes of keys the
   run knows are live, read-your-writes checks, an abort now and then —
   identical on both sides because it consumes its own private RNG. *)
let drive_workload ~seed ~txns db d =
  let rng = Rng.create seed in
  let live = Hashtbl.create 64 in
  let stamps = ref [] in
  for i = 1 to txns do
    let txn = d.d_begin () in
    (* this transaction's net effect per key — a key rewritten twice in
       one txn must be checked against its latest write, not its first *)
    let overlay = Hashtbl.create 8 in
    let alive key =
      match Hashtbl.find_opt overlay key with
      | Some v -> v <> None
      | None -> Hashtbl.mem live key
    in
    for _ = 1 to 1 + Rng.int rng 3 do
      let key = Printf.sprintf "k%02d" (Rng.int rng 40) in
      if alive key && Rng.int rng 4 = 0 then begin
        d.d_delete txn ~key;
        Hashtbl.replace overlay key None
      end
      else begin
        let payload = Printf.sprintf "v%d-%d" i (Rng.int rng 1000) in
        d.d_upsert txn ~key ~payload;
        Hashtbl.replace overlay key (Some payload)
      end
    done;
    (* read-your-writes inside the transaction *)
    Hashtbl.iter
      (fun key expect ->
        if d.d_get txn ~key <> expect then Alcotest.failf "read-your-writes lost %s" key)
      overlay;
    if Rng.int rng 10 = 0 then Db.abort db txn
    else begin
      (match d.d_commit txn with
      | Some ts -> stamps := ts :: !stamps
      | None -> ());
      Hashtbl.iter
        (fun key v ->
          match v with
          | Some p -> Hashtbl.replace live key p
          | None -> Hashtbl.remove live key)
        overlay
    end
  done;
  List.rev !stamps

let state_and_histories db =
  let rows = ref [] in
  Db.exec db (fun txn ->
      Db.scan db txn ~table:"t" (fun k v -> rows := (k, v) :: !rows));
  let hist =
    Db.exec db (fun txn ->
        List.map (fun (k, _) -> (k, Db.history db txn ~table:"t" ~key:k)) !rows)
  in
  (List.rev !rows, hist)

let open_twin () =
  let clock = Imdb_clock.Clock.create_logical () in
  let disk = Imdb_storage.Disk.in_memory ~page_size:1024 () in
  let log_device = Imdb_wal.Wal.Device.in_memory () in
  let config = { E.default_config with E.pool_capacity = 256; auto_checkpoint_every = 0 } in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  (db, log_device)

let test_session_bit_identical () =
  let run mk_driver =
    let db, dev = open_twin () in
    let stamps = drive_workload ~seed:2026 ~txns:150 db (mk_driver db) in
    let state, hist = state_and_histories db in
    Db.close db;
    let wal = dev.Imdb_wal.Wal.Device.read ~pos:0 ~len:(dev.Imdb_wal.Wal.Device.size ()) in
    (stamps, state, hist, wal)
  in
  let s_a, st_a, h_a, w_a = run direct_driver in
  let s_b, st_b, h_b, w_b = run session_driver in
  Alcotest.(check int) "same commit count" (List.length s_a) (List.length s_b);
  Alcotest.(check bool) "same commit timestamps" true (List.for_all2 Ts.equal s_a s_b);
  Alcotest.(check bool) "same final state" true (st_a = st_b);
  Alcotest.(check bool) "same histories" true (h_a = h_b);
  Alcotest.(check int) "same WAL length" (Bytes.length w_a) (Bytes.length w_b);
  Alcotest.(check bool) "WAL bit-identical" true (Bytes.equal w_a w_b)

(* --- concurrent ≡ serial, via the torture oracle ------------------------- *)

let concurrent_cfg ~sessions ~seed =
  { H.default with H.seed; ops = 450; crashes = 5; keys_per_table = 32; sessions }

let prop_concurrent_equals_serial sessions =
  QCheck.Test.make ~count:3 ~name:(Printf.sprintf "%d sessions ≡ a serial order" sessions)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      match H.run (concurrent_cfg ~sessions ~seed) with
      | H.Passed r ->
          (* the claim is vacuous unless real concurrent work happened *)
          r.H.r_commits > 50 && r.H.r_asof_checks > 0
      | H.Failed f ->
          QCheck.Test.fail_reportf "seed %d diverged from serial order: %a" seed
            H.pp_failure f)

let test_concurrent_crash_recovery () =
  (* a fixed seed known to fire wal-tail crashes between bursts: every
     commit a session saw return must survive recovery, with no
     verification failure *)
  match H.run { (concurrent_cfg ~sessions:3 ~seed:7) with H.ops = 900; crashes = 10 } with
  | H.Passed r ->
      Alcotest.(check bool) "crashes fired" true (r.H.r_crashes > 0);
      Alcotest.(check bool) "recovered each one" true (r.H.r_recoveries >= r.H.r_crashes)
  | H.Failed f -> Alcotest.failf "concurrent crash run failed: %a" H.pp_failure f

(* --- a parked serializable reader sees its blocker's last write ------------

   A serializable read or scan parks on the lock of a writer whose writes
   still sit in the ingest buffer.  While it is parked the writer writes
   the key again and commits; the reader must return that last write,
   so buffered writes may only be applied to the pages once the reader
   holds its lock. *)

let parked_reader_sees_last_write read =
  let config = { E.default_config with E.lock_wait_timeout_ms = 5_000 } in
  let db = Db.open_memory ~config ~clock:(Imdb_clock.Clock.create_logical ()) () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let writer = Db.session db and reader = Db.session db in
  Db.Session.with_txn writer (fun txn ->
      Db.Session.insert writer txn ~table:"t" ~key:"k1" ~payload:"v0");
  let w = Db.Session.begin_txn writer in
  Db.Session.update writer w ~table:"t" ~key:"k1" ~payload:"v1";
  let d = Domain.spawn (fun () -> Db.Session.with_txn reader (read reader)) in
  let dump = Helpers.await_waiters (Db.engine db).E.locks 1 in
  Alcotest.(check int) "reader parked" 1 (List.length dump.Imdb_lock.Lock_manager.d_waiters);
  Db.Session.update writer w ~table:"t" ~key:"k1" ~payload:"v2";
  ignore (Db.Session.commit writer w);
  let got = Domain.join d in
  Db.close db;
  Alcotest.(check (option string)) "the blocker's last write" (Some "v2") got

let test_parked_point_read () =
  parked_reader_sees_last_write (fun s txn -> Db.Session.get s txn ~table:"t" ~key:"k1")

let test_parked_scan () =
  parked_reader_sees_last_write (fun s txn ->
      let got = ref None in
      Db.Session.scan s txn ~table:"t" (fun k v -> if k = "k1" then got := Some v);
      !got)

let suite =
  [
    Alcotest.test_case "sessions=1 bit-identical to plain API" `Quick test_session_bit_identical;
    QCheck_alcotest.to_alcotest ~long:false (prop_concurrent_equals_serial 2);
    QCheck_alcotest.to_alcotest ~long:false (prop_concurrent_equals_serial 4);
    Alcotest.test_case "concurrent crashes keep acknowledged commits" `Slow
      test_concurrent_crash_recovery;
    Alcotest.test_case "parked point read sees the last write" `Quick test_parked_point_read;
    Alcotest.test_case "parked scan sees the last write" `Quick test_parked_scan;
  ]
