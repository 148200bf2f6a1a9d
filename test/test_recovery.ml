(* Crash recovery matrix: crashes at every interesting point, repeated
   crashes, torn log tails, losers with splits, and recovery idempotence
   of the guarded logical undo. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp

let setup ?config () =
  let db, clock = fresh_db ?config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock)

let test_crash_before_any_commit () =
  let db, clock = setup () in
  let txn = Db.begin_txn db in
  Db.insert_row db txn ~table:"t" (row 1 "ghost");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 None;
  (* the table itself (committed DDL) survived *)
  Alcotest.(check int) "table exists" 1 (List.length (Db.list_tables db));
  Db.close db

let test_crash_between_commits () =
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "a")));
  tick clock;
  let doomed = Db.begin_txn db in
  Db.update_row db doomed ~table:"t" (row 1 "b");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "a"));
  Db.close db

let test_repeated_crashes () =
  let db, clock = setup () in
  let db = ref db in
  for round = 1 to 5 do
    tick clock;
    ignore
      (commit_write !db (fun txn ->
           Db.upsert_row !db txn ~table:"t" (row round (Printf.sprintf "r%d" round))));
    (* leave a loser behind each round *)
    let loser = Db.begin_txn !db in
    Db.upsert_row !db loser ~table:"t" (row 99 "loser");
    db := Db.crash_and_reopen ~clock !db
  done;
  Db.exec !db (fun txn ->
      Alcotest.(check int) "five committed rows" 5
        (List.length (Db.scan_rows !db txn ~table:"t")));
  check_row !db ~table:"t" ~id:99 None;
  Db.close !db

let test_crash_preserves_history () =
  let db, clock = setup () in
  let stamps = ref [] in
  for v = 1 to 30 do
    tick clock;
    let ts =
      commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 1 (Printf.sprintf "v%d" v)))
    in
    stamps := (v, ts) :: !stamps
  done;
  let db = Db.crash_and_reopen ~clock db in
  (* every historical state is still queryable *)
  List.iter
    (fun (v, ts) ->
      let got = Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "as of v%d" v)
        true
        (got = Some (row 1 (Printf.sprintf "v%d" v))))
    !stamps;
  Db.close db

let test_loser_spanning_splits () =
  (* a loser transaction whose versions moved through a time split before
     the crash must still be rolled back (logical undo re-locates them) *)
  let db, clock = setup () in
  (* commit enough updates that the data page is near-full *)
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row i "base")))
  done;
  (* fat payloads so the churn genuinely fills pages and time-splits
     this database (the counter is per-engine, nothing bleeds in) *)
  let fat tag u = Printf.sprintf "%s%d-%s" tag u (String.make 120 'x') in
  for u = 1 to 100 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"t" (row (1 + (u mod 5)) (fat "u" u))))
  done;
  (* the loser updates a key, then other commits force time splits *)
  let loser = Db.begin_txn db in
  Db.update_row db loser ~table:"t" (row 3 "loser-version");
  for u = 1 to 60 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"t" (row (1 + (u mod 2)) (fat "w" u))))
  done;
  Alcotest.(check bool) "splits happened while loser open" true
    (Imdb_obs.Metrics.(get (Db.metrics db) time_splits) > 0);
  let db = Db.crash_and_reopen ~clock db in
  (* key 3's current version is the last committed one, not the loser's *)
  (match Db.exec db (fun txn -> Db.get_row db txn ~table:"t" ~key:(S.V_int 3)) with
  | Some [ _; S.V_string v ] ->
      Alcotest.(check bool) "loser version gone" true (v <> "loser-version")
  | _ -> Alcotest.fail "key 3 missing");
  Db.close db

let test_explicit_abort_then_crash () =
  (* an abort completed before the crash must not be undone twice *)
  let db, clock = setup () in
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "keep")));
  let txn = Db.begin_txn db in
  Db.update_row db txn ~table:"t" (row 1 "aborted");
  Db.abort db txn;
  tick clock;
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row 1 "after")));
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"t" ~id:1 (Some (row 1 "after"));
  Db.close db

let test_checkpointed_recovery () =
  (* recovery from the latest checkpoint, not from the log start *)
  let config = { E.default_config with E.auto_checkpoint_every = 25 } in
  let db, clock = setup ~config () in
  for i = 1 to 120 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (i mod 10) (Printf.sprintf "i%d" i))))
  done;
  let db = Db.crash_and_reopen ~clock db in
  Db.exec db (fun txn ->
      Alcotest.(check int) "ten keys" 10 (List.length (Db.scan_rows db txn ~table:"t")));
  (* and the engine still accepts writes *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row 42 "post")));
  check_row db ~table:"t" ~id:42 (Some (row 42 "post"));
  Db.close db

let test_conventional_table_recovery () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"c" ~mode:Db.Conventional ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"c" (row 1 "committed")));
  let loser = Db.begin_txn db in
  Db.insert_row db loser ~table:"c" (row 2 "loser");
  Db.update_row db loser ~table:"c" (row 1 "loser-update");
  let db = Db.crash_and_reopen ~clock db in
  check_row db ~table:"c" ~id:1 (Some (row 1 "committed"));
  check_row db ~table:"c" ~id:2 None;
  Db.close db

let test_ddl_crash () =
  (* a table created but not... DDL autocommits, so after the call it is
     durable; crash right after and use it *)
  let db, clock = fresh_db () in
  Db.create_table db ~name:"u" ~mode:Db.Immortal ~schema:kv_schema;
  let db = Db.crash_and_reopen ~clock db in
  Alcotest.(check bool) "table survives" true
    (List.exists (fun ti -> ti.Imdb_core.Catalog.ti_name = "u") (Db.list_tables db));
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"u" (row 1 "ok")));
  check_row db ~table:"u" ~id:1 (Some (row 1 "ok"));
  Db.close db

(* Model-based crash property: random committed writes interleaved with
   random crash points; after each crash every committed state (current
   and as-of) matches a reference temporal model, and losers vanish. *)
let prop_crash_model =
  let gen = QCheck.Gen.(list_size (int_range 5 60) (pair (int_range 0 7) (int_range 0 9))) in
  QCheck.Test.make ~name:"crash/recovery vs temporal model" ~count:25 (QCheck.make gen)
    (fun script ->
      let db, clock = fresh_db () in
      Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
      let db = ref db in
      (* reference: key -> (ts * value option) list, newest first *)
      let committed : (int, (Ts.t * string option) list) Hashtbl.t = Hashtbl.create 8 in
      let current k =
        match Hashtbl.find_opt committed k with
        | Some ((_, v) :: _) -> v
        | _ -> None
      in
      let step = ref 0 in
      List.iter
        (fun (action, key) ->
          incr step;
          tick clock;
          match action with
          | 0 | 1 | 2 | 3 -> (
              (* committed upsert *)
              let v = Printf.sprintf "s%d" !step in
              let ts =
                commit_write !db (fun txn -> Db.upsert_row !db txn ~table:"t" (row key v))
              in
              Hashtbl.replace committed key
                ((ts, Some v) :: Option.value ~default:[] (Hashtbl.find_opt committed key)))
          | 4 ->
              (* committed delete, if present *)
              if current key <> None then begin
                let ts =
                  commit_write !db (fun txn ->
                      Db.delete_row !db txn ~table:"t" ~key:(S.V_int key))
                in
                Hashtbl.replace committed key
                  ((ts, None) :: Option.value ~default:[] (Hashtbl.find_opt committed key))
              end
          | 5 ->
              (* loser left open across the next crash; it holds its lock
                 until then, so losers write a disjoint key range *)
              let txn = Db.begin_txn !db in
              (try Db.upsert_row !db txn ~table:"t" (row (100 + key) "loser") with _ -> ())
          | 6 ->
              (* explicit abort *)
              let txn = Db.begin_txn !db in
              (try
                 Db.upsert_row !db txn ~table:"t" (row key "aborted");
                 Db.abort !db txn
               with _ -> ())
          | _ ->
              (* crash *)
              db := Db.crash_and_reopen ~clock !db)
        script;
      db := Db.crash_and_reopen ~clock !db;
      let ok = ref true in
      (* no loser rows survive: every surviving key is a committed one *)
      Db.exec !db (fun txn ->
          List.iter
            (fun r ->
              match r with
              | S.V_int k :: _ ->
                  if k >= 100 then begin
                    ok := false;
                    QCheck.Test.fail_reportf "loser key %d survived the crash" k
                  end
              | _ -> ())
            (Db.scan_rows !db txn ~table:"t"));
      (* verify current state *)
      Hashtbl.iter
        (fun key versions ->
          let expect = match versions with (_, v) :: _ -> v | [] -> None in
          let got =
            Db.exec !db (fun txn ->
                match Db.get_row !db txn ~table:"t" ~key:(S.V_int key) with
                | Some [ _; S.V_string v ] -> Some v
                | _ -> None)
          in
          if got <> expect then begin
            ok := false;
            QCheck.Test.fail_reportf "current key %d: got %s want %s" key
              (Option.value got ~default:"-")
              (Option.value expect ~default:"-")
          end;
          (* verify a historical point per key: state as of each commit *)
          List.iter
            (fun (ts, v) ->
              let got =
                Db.as_of !db ts (fun txn ->
                    match Db.get_row !db txn ~table:"t" ~key:(S.V_int key) with
                    | Some [ _; S.V_string v ] -> Some v
                    | _ -> None)
              in
              if got <> v then begin
                ok := false;
                QCheck.Test.fail_reportf "key %d as of %s: got %s want %s" key
                  (Ts.to_string ts)
                  (Option.value got ~default:"-")
                  (Option.value v ~default:"-")
              end)
            versions)
        committed;
      Db.close !db;
      !ok)

(* A database written in the version-1 log format must be refused at
   open, before analysis meets a record kind this format dropped: stamp
   version 1 into the on-disk meta page, append a version-1 Abort record
   (body tag 5) to the log, and reopen. *)
let test_old_format_refused () =
  let db, _clock = setup () in
  Db.close db;
  let disk, log_device = Db.devices db in
  let module C = Imdb_util.Codec in
  let payload = Bytes.create 9 in
  C.set_u8 payload 0 5;
  C.set_i64 payload 1 7L;
  let frame = Bytes.create 17 in
  C.set_u32 frame 0 9;
  C.set_u32 frame 4 (Imdb_util.Checksum.bytes_int payload);
  C.set_bytes frame 8 payload;
  log_device.Imdb_wal.Wal.Device.append frame;
  let module P = Imdb_storage.Page in
  let page = disk.Imdb_storage.Disk.read_page Imdb_core.Meta.meta_page_id in
  let version = Bytes.create 2 in
  C.set_u16 version 0 1;
  P.patch_cell page Imdb_core.Meta.meta_slot ~at:4 ~src:version;
  P.seal page;
  disk.Imdb_storage.Disk.write_page Imdb_core.Meta.meta_page_id page;
  match Db.open_devices ~disk ~log_device () with
  | _ -> Alcotest.fail "a version-1 database opened"
  | exception Imdb_core.Meta.Bad_meta _ -> ()

let suite =
  [
    Alcotest.test_case "crash before any commit" `Quick test_crash_before_any_commit;
    Alcotest.test_case "crash between commits" `Quick test_crash_between_commits;
    Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
    Alcotest.test_case "crash preserves history" `Quick test_crash_preserves_history;
    Alcotest.test_case "loser spanning splits" `Quick test_loser_spanning_splits;
    Alcotest.test_case "abort then crash" `Quick test_explicit_abort_then_crash;
    Alcotest.test_case "checkpointed recovery" `Quick test_checkpointed_recovery;
    Alcotest.test_case "conventional recovery" `Quick test_conventional_table_recovery;
    Alcotest.test_case "DDL crash" `Quick test_ddl_crash;
    Alcotest.test_case "old log format refused" `Quick test_old_format_refused;
    QCheck_alcotest.to_alcotest prop_crash_model;
  ]
