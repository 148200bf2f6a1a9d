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
(* Version 1 logged CLR and Abort records; version 2 checkpoints never
   posted snapshot-table mappings to the PTT.  Both are refused. *)
let test_old_format_refused () =
  List.iter
    (fun old_version ->
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
      C.set_u16 version 0 old_version;
      P.patch_cell page Imdb_core.Meta.meta_slot ~at:4 ~src:version;
      P.seal page;
      disk.Imdb_storage.Disk.write_page Imdb_core.Meta.meta_page_id page;
      match Db.open_devices ~disk ~log_device () with
      | _ -> Alcotest.failf "a version-%d database opened" old_version
      | exception Imdb_core.Meta.Bad_meta _ -> ())
    [ 1; 2 ]

(* --- what recovery keeps of the timestamp mappings ---------------------- *)

module LS = Imdb_tstamp.Lazy_stamper
module Vtt = Imdb_tstamp.Vtt
module Tid = Imdb_clock.Tid
module M = Imdb_obs.Metrics

(* Recovery seeds the VTT with the commits since the last checkpoint,
   posts them at its own checkpoint and forgets them: after a restart
   the VTT holds the new commits and whatever the PTT was asked for,
   never the pre-restart history. *)
let test_vtt_bounded_after_restart () =
  let db, clock = setup () in
  let pre = ref [] in
  for i = 1 to 60 do
    tick clock;
    let txn = Db.begin_txn db in
    pre := txn.E.tx_tid :: !pre;
    Db.upsert_row db txn ~table:"t" (row (i mod 20) (Printf.sprintf "v%d" i));
    ignore (Db.commit db txn)
  done;
  let db = Db.crash_and_reopen ~clock db in
  let vtt = E.vtt (Db.engine db) in
  let held () = List.filter (fun tid -> List.exists (Tid.equal tid) !pre) (Vtt.tids vtt) in
  Alcotest.(check int) "no pre-restart TID after recovery" 0 (List.length (held ()));
  let m = Db.metrics db in
  let lookups0 = M.get m M.ptt_lookups in
  let k = 10 in
  for i = 1 to k do
    tick clock;
    ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row i "after")))
  done;
  let looked_up = M.get m M.ptt_lookups - lookups0 in
  let cached tid =
    match Vtt.find vtt tid with Some e -> e.Vtt.refcount < 0 | None -> false
  in
  Alcotest.(check bool) "pre-restart TIDs held only as looked-up cache entries" true
    (List.length (held ()) <= looked_up && List.for_all cached (held ()));
  Alcotest.(check bool)
    (Printf.sprintf "VTT holds %d <= K + %d looked up" (List.length (Vtt.tids vtt)) looked_up)
    true
    (List.length (Vtt.tids vtt) <= k + looked_up);
  Db.checkpoint db;
  Alcotest.(check int) "a checkpoint forgets the looked-up ones" 0 (List.length (held ()));
  Alcotest.(check bool) "then at most the K unstamped commits" true
    (List.length (Vtt.tids vtt) <= k);
  for i = 0 to 19 do
    check_row db ~table:"t" ~id:i
      (Some
         (row i
            (if i >= 1 && i <= k then "after"
             else Printf.sprintf "v%d" (if i = 0 then 60 else 40 + i))))
  done;
  Db.close db

(* Every TID an unstamped version carries on a data page, as recovery
   left the page (read through the pool). *)
let unstamped_tids db =
  let module BP = Imdb_buffer.Buffer_pool in
  let module P = Imdb_storage.Page in
  let eng = Db.engine db in
  let out = ref [] in
  for pid = 1 to eng.E.meta.Imdb_core.Meta.hwm - 1 do
    if eng.E.disk.Imdb_storage.Disk.page_exists pid || BP.is_cached eng.E.pool pid then
      BP.with_page eng.E.pool pid (fun fr ->
          let page = BP.bytes fr in
          if P.page_type page = P.P_data then
            P.iter_live page (fun slot ->
                match Imdb_storage.Record.in_page_ttime page slot with
                | Tid.Unstamped tid ->
                    if not (List.exists (Tid.equal tid) !out) then out := tid :: !out
                | Tid.Stamped _ -> ()))
  done;
  !out

type rop =
  | Write of (int * int) list (* (table, key): 0 = snapshot, 1 = immortal *)
  | Read of int * int
  | Checkpoint
  | Crash

let pp_rop = function
  | Write ws ->
      "W" ^ String.concat "," (List.map (fun (t, k) -> Printf.sprintf "%d:%d" t k) ws)
  | Read (t, k) -> Printf.sprintf "R%d:%d" t k
  | Checkpoint -> "C"
  | Crash -> "X"

(* A snapshot-only transaction whose version is stamped — its refcount
   drains — while the stamped page is still dirty, then a checkpoint and
   a crash.  Two checkpoints first flush every page, so the write dirties
   a clean page and the last checkpoint's sweep leaves it dirty: recovery
   starts past the Commit record and redoes the page from the log, TID
   and all, so the checkpoint must have posted the mapping. *)
let drained_snapshot_prefix =
  [ Checkpoint; Checkpoint; Write [ (0, 0) ]; Read (0, 0); Checkpoint; Crash ]

let rop_gen =
  QCheck.Gen.(
    let key = pair (int_bound 1) (int_bound 11) in
    frequency
      [
        (6, map (fun ws -> Write ws) (list_size (int_range 1 3) key));
        (3, map (fun (t, k) -> Read (t, k)) key);
        (1, return Checkpoint);
        (1, return Crash);
      ])

(* After every crash, every TID still unstamped on a page resolves to
   its commit, and every row reads back as committed. *)
let prop_unstamped_tids_resolve =
  QCheck.Test.make ~name:"every unstamped TID resolves after a crash" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_rop ops))
       QCheck.Gen.(list_size (int_range 10 60) rop_gen))
    (fun ops ->
      let config = { E.default_config with E.page_size = 1024; pool_capacity = 8 } in
      let db, clock = fresh_db ~config () in
      let tables = [| "snap"; "imm" |] in
      Db.create_table db ~name:"snap" ~mode:Db.Snapshot_table ~schema:kv_schema;
      Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema:kv_schema;
      let model = Hashtbl.create 32 in
      let db = ref db and n = ref 0 in
      let check () =
        let eng = Db.engine !db in
        let unknown0 = LS.unknown_tids eng.E.stamper in
        List.iter
          (fun tid ->
            match LS.resolve eng.E.stamper tid with
            | Imdb_version.Vpage.Committed _ -> ()
            | Imdb_version.Vpage.Active ->
                QCheck.Test.fail_reportf "TID %s on a page resolves as active"
                  (Tid.to_string tid)
            | Imdb_version.Vpage.Unknown ->
                QCheck.Test.fail_reportf "TID %s on a page has no mapping"
                  (Tid.to_string tid))
          (unstamped_tids !db);
        Hashtbl.iter
          (fun (t, k) v ->
            Db.exec !db (fun txn ->
                if Db.get_row !db txn ~table:tables.(t) ~key:(S.V_int k) <> Some (row k v)
                then QCheck.Test.fail_reportf "%s/%d lost %s" tables.(t) k v))
          model;
        if LS.unknown_tids eng.E.stamper <> unknown0 then
          QCheck.Test.fail_report "a read met a TID with no mapping"
      in
      List.iter
        (function
          | Write ws ->
              tick clock;
              incr n;
              let ws = List.sort_uniq compare ws in
              ignore
                (commit_write !db (fun txn ->
                     List.iter
                       (fun (t, k) ->
                         let v = Printf.sprintf "v%d" !n in
                         Db.upsert_row !db txn ~table:tables.(t) (row k v);
                         Hashtbl.replace model (t, k) v)
                       ws))
          | Read (t, k) ->
              Db.exec !db (fun txn ->
                  ignore (Db.get_row !db txn ~table:tables.(t) ~key:(S.V_int k)))
          | Checkpoint -> Db.checkpoint !db
          | Crash ->
              db := Db.crash_and_reopen ~clock !db;
              check ())
        (drained_snapshot_prefix @ ops @ [ Crash ]);
      Db.close !db;
      true)

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
    Alcotest.test_case "VTT forgets pre-restart history" `Quick test_vtt_bounded_after_restart;
    QCheck_alcotest.to_alcotest prop_unstamped_tids_resolve;
    QCheck_alcotest.to_alcotest prop_crash_model;
  ]
