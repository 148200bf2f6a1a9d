(* Engine-level integration: TSB/chain equivalence, split-store baseline
   equivalence, snapshot-table semantics, deeper SQL/engine interplay, and
   a no-crash temporal model property over a long randomized run. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module Mo = Imdb_workload.Moving_objects
module Driver = Imdb_workload.Driver

(* --- TSB index agrees with the page-chain walk --------------------------- *)

let test_tsb_chain_equivalence () =
  let events = Mo.generate ~seed:13 ~inserts:40 ~total:2500 () in
  let run ~tsb =
    let config = { E.default_config with E.tsb_enabled = tsb } in
    let db, clock = Driver.fresh_moving_objects ~config ~mode:Db.Immortal () in
    let r = Driver.run_events ~clock db ~table:"MovingObjects" events in
    (db, r.Driver.rr_commit_ts)
  in
  let db_chain, stamps = run ~tsb:false in
  let db_tsb, _ = run ~tsb:true in
  Alcotest.(check bool) "chain run produced splits" true
    (Imdb_obs.Metrics.(get (Db.metrics db_chain) time_splits) > 0);
  (* every 100th commit point: full as-of scans must agree exactly *)
  List.iteri
    (fun i ts ->
      if i mod 100 = 0 then begin
        let scan db =
          let out = ref [] in
          Db.as_of db ts (fun txn ->
              Db.scan db txn ~table:"MovingObjects" (fun k v -> out := (k, v) :: !out));
          List.sort compare !out
        in
        let a = scan db_chain and b = scan db_tsb in
        if a <> b then
          Alcotest.failf "as-of scan mismatch at commit %d (%d vs %d rows)" i
            (List.length a) (List.length b)
      end)
    stamps;
  (* point reads agree too *)
  let mid = List.nth stamps (List.length stamps / 2) in
  for oid = 1 to 40 do
    let read db =
      Db.as_of db mid (fun txn ->
          Db.get_row db txn ~table:"MovingObjects" ~key:(S.V_int oid))
    in
    if read db_chain <> read db_tsb then Alcotest.failf "point mismatch oid %d" oid
  done;
  Db.close db_chain;
  Db.close db_tsb

(* --- split-store baseline produces identical answers ---------------------- *)

let test_split_store_equivalence () =
  let events = Mo.generate ~seed:21 ~inserts:30 ~total:1500 () in
  (* integrated *)
  let db, clock = Driver.fresh_moving_objects ~mode:Db.Immortal () in
  let r = Driver.run_events ~clock db ~table:"MovingObjects" events in
  (* split store over its own engine, same logical clock progression *)
  let clock2 = Imdb_clock.Clock.create_logical () in
  let db2 = Db.open_memory ~clock:clock2 () in
  let ss = Imdb_core.Split_store.create (Db.engine db2) ~table_id:99 in
  let payload x y = Printf.sprintf "%d,%d" x y in
  List.iter
    (fun ev ->
      Imdb_clock.Clock.advance clock2 20L;
      let txn = Db.begin_txn db2 in
      (match ev with
      | Mo.Insert { oid; x; y } ->
          Imdb_core.Split_store.insert ss txn ~key:(S.encode_key (S.V_int oid))
            ~payload:(payload x y)
      | Mo.Update { oid; x; y } ->
          Imdb_core.Split_store.update ss txn ~key:(S.encode_key (S.V_int oid))
            ~payload:(payload x y));
      ignore (Db.commit db2 txn))
    events;
  (* same clock cadence => same commit timestamps; compare states *)
  List.iteri
    (fun i ts ->
      if i mod 150 = 0 then begin
        let a = ref [] in
        Db.as_of db ts (fun txn ->
            Db.scan db txn ~table:"MovingObjects" (fun k v ->
                let row = S.row_of_parts Driver.moving_objects_schema ~key:k ~payload:v in
                match row with
                | [ S.V_int oid; S.V_int x; S.V_int y ] -> a := (oid, payload x y) :: !a
                | _ -> ()));
        let b = ref [] in
        Db.exec db2 (fun txn ->
            Imdb_core.Split_store.scan_as_of ss txn ~ts (fun k v ->
                match S.decode_key k with
                | S.V_int oid -> b := (oid, v) :: !b
                | _ -> ()));
        let a = List.sort compare !a and b = List.sort compare !b in
        if a <> b then
          Alcotest.failf "split-store divergence at commit %d: %d vs %d rows" i
            (List.length a) (List.length b)
      end)
    r.Driver.rr_commit_ts;
  Db.close db;
  Db.close db2

(* --- snapshot tables: versions for SI only, GC'd under pressure ------------ *)

let test_snapshot_table_gc_pressure () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"s" ~mode:Db.Snapshot_table ~schema:kv_schema;
  for i = 1 to 5 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"s" (row i "v0")))
  done;
  (* with no open snapshots, heavy updates must NOT grow storage unboundedly:
     gc_versions reclaims instead of time-splitting *)
  for u = 1 to 800 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"s" (row (1 + (u mod 5)) (Printf.sprintf "v%d" u))))
  done;
  Alcotest.(check int) "no time splits on snapshot tables" 0
    (Imdb_obs.Metrics.(get (Db.metrics db) time_splits));
  let pages = (Db.engine db).E.meta.Imdb_core.Meta.hwm in
  Alcotest.(check bool) (Printf.sprintf "storage bounded (%d pages)" pages) true (pages < 20);
  (* reads are correct *)
  check_row db ~table:"s" ~id:1 (Some (row 1 "v800"));
  (* AS OF on snapshot tables is refused *)
  (match
     Db.as_of db (Imdb_clock.Clock.last_issued clock) (fun txn ->
         Db.get_row db txn ~table:"s" ~key:(S.V_int 1))
   with
  | exception Imdb_core.Table.Not_versioned _ -> ()
  | _ -> Alcotest.fail "AS OF accepted on a snapshot table");
  Db.close db

let test_snapshot_reader_blocks_gc () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"s" ~mode:Db.Snapshot_table ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"s" (row 1 "original")));
  tick clock;
  (* a reader pins its snapshot *)
  let reader = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  let before = Db.get_row db reader ~table:"s" ~key:(S.V_int 1) in
  (* churn enough to trigger version GC several times *)
  for u = 1 to 600 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.update_row db txn ~table:"s" (row 1 (Printf.sprintf "u%d" u))))
  done;
  (* the reader's version survived GC (oldest-active-snapshot horizon) *)
  let after = Db.get_row db reader ~table:"s" ~key:(S.V_int 1) in
  Alcotest.(check bool) "snapshot version preserved" true
    (before = Some (row 1 "original") && after = Some (row 1 "original"));
  ignore (Db.commit db reader);
  Db.close db

(* --- interleaved transactions under 2PL ------------------------------------ *)

let test_serializable_interleaving () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 1 "x")));
  (* t1 reads (S lock); t2's write must conflict until t1 finishes *)
  let t1 = Db.begin_txn db in
  ignore (Db.get_row db t1 ~table:"t" ~key:(S.V_int 1));
  let t2 = Db.begin_txn db in
  (match Db.update_row db t2 ~table:"t" (row 1 "y") with
  | () -> Alcotest.fail "write granted over reader's S lock"
  | exception E.Deadlock_abort _ -> ());
  ignore (Db.commit db t1);
  (* with the lock released, the writer proceeds *)
  Db.update_row db t2 ~table:"t" (row 1 "y");
  ignore (Db.commit db t2);
  check_row db ~table:"t" ~id:1 (Some (row 1 "y"));
  Db.close db

(* --- long-run temporal model (no crashes, with scans) ----------------------- *)

let prop_temporal_model =
  let gen =
    QCheck.Gen.(list_size (int_range 50 200) (pair (int_range 0 5) (int_range 0 11)))
  in
  QCheck.Test.make ~name:"long-run temporal model with scans" ~count:10
    (QCheck.make gen)
    (fun script ->
      let db, clock = fresh_db () in
      Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
      (* reference: (ts, full state) checkpoints after every commit *)
      let state : (int, string) Hashtbl.t = Hashtbl.create 8 in
      let snapshots = ref [] in
      let step = ref 0 in
      List.iter
        (fun (action, key) ->
          incr step;
          tick clock;
          match action with
          | 0 | 1 | 2 ->
              let v = Printf.sprintf "s%d" !step in
              let ts =
                commit_write db (fun txn -> Db.upsert_row db txn ~table:"t" (row key v))
              in
              Hashtbl.replace state key v;
              snapshots := (ts, Hashtbl.copy state) :: !snapshots
          | 3 ->
              if Hashtbl.mem state key then begin
                let ts =
                  commit_write db (fun txn ->
                      Db.delete_row db txn ~table:"t" ~key:(S.V_int key))
                in
                Hashtbl.remove state key;
                snapshots := (ts, Hashtbl.copy state) :: !snapshots
              end
          | 4 ->
              (* aborted multi-write transaction: must leave no trace *)
              let txn = Db.begin_txn db in
              (try
                 Db.upsert_row db txn ~table:"t" (row key "junk1");
                 Db.upsert_row db txn ~table:"t" (row ((key + 1) mod 12) "junk2");
                 Db.abort db txn
               with _ -> (try Db.abort db txn with _ -> ()))
          | _ -> ())
        script;
      (* check every snapshot by full as-of scan *)
      let ok = ref true in
      List.iter
        (fun (ts, expected) ->
          let got = Hashtbl.create 8 in
          Db.as_of db ts (fun txn ->
              Db.scan db txn ~table:"t" (fun k v ->
                  match
                    S.row_of_parts kv_schema ~key:k ~payload:v
                  with
                  | [ S.V_int id; S.V_string s ] -> Hashtbl.replace got id s
                  | _ -> ()));
          if Hashtbl.length got <> Hashtbl.length expected then begin
            ok := false;
            QCheck.Test.fail_reportf "as of %s: %d rows, want %d" (Ts.to_string ts)
              (Hashtbl.length got) (Hashtbl.length expected)
          end;
          Hashtbl.iter
            (fun k v ->
              if Hashtbl.find_opt got k <> Some v then begin
                ok := false;
                QCheck.Test.fail_reportf "as of %s key %d: got %s want %s"
                  (Ts.to_string ts) k
                  (Option.value (Hashtbl.find_opt got k) ~default:"-")
                  v
              end)
            expected)
        !snapshots;
      (* history length per key = number of committed writes+deletes *)
      Db.close db;
      !ok)

(* --- structural invariants after heavy load --------------------------------- *)

let test_structures_stay_sound () =
  let events = Mo.generate ~seed:31 ~inserts:60 ~total:4000 () in
  let db, clock = Driver.fresh_moving_objects ~mode:Db.Immortal () in
  ignore (Driver.run_events ~clock db ~table:"MovingObjects" events);
  let eng = Db.engine db in
  let ti = Db.table_info db "MovingObjects" in
  (* the key router is a sound B-tree *)
  let rt = Imdb_core.Table.router eng ti in
  Alcotest.(check bool) "router invariants" true
    (Imdb_btree.Btree.check_invariants rt > 0);
  (* the TSB index tiles history with disjoint rectangles *)
  (match Imdb_core.Table.tsb eng ti with
  | Some index ->
      let leaves = Imdb_tsb.Tsb.check_invariants index in
      Alcotest.(check bool) "TSB invariants & populated" true (leaves > 0)
  | None -> Alcotest.fail "TSB expected");
  (* the PTT too *)
  Alcotest.(check bool) "PTT tree invariants" true
    (Imdb_btree.Btree.check_invariants (E.ptt_exn eng).Imdb_tstamp.Ptt.tree >= 0);
  (* and all of it still holds after a crash+recovery *)
  let db = Db.crash_and_reopen ~clock db in
  let eng = Db.engine db in
  let ti = Db.table_info db "MovingObjects" in
  Alcotest.(check bool) "router invariants after recovery" true
    (Imdb_btree.Btree.check_invariants (Imdb_core.Table.router eng ti) > 0);
  (match Imdb_core.Table.tsb eng ti with
  | Some index ->
      Alcotest.(check bool) "TSB invariants after recovery" true
        (Imdb_tsb.Tsb.check_invariants index > 0)
  | None -> ());
  Db.close db


(* First-committer-wins must hold even when the competing deletion's
   whole chain (ending in a stub) moved to a history page via a time
   split before the snapshot writer retried. *)
let test_fcw_through_time_split () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  tick clock;
  ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row 99 "victim")));
  (* snapshot taken while key 99 is alive *)
  tick clock;
  let t1 = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  (* a competitor deletes it and commits *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.delete_row db txn ~table:"t" ~key:(S.V_int 99)));
  (* churn other keys until time splits push the stub chain to history *)
  let splits () = Imdb_obs.Metrics.(get (Db.metrics db) time_splits) in
  let u = ref 0 in
  while splits () < 2 && !u < 2000 do
    incr u;
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (!u mod 8) (Printf.sprintf "c%d" !u))))
  done;
  Alcotest.(check bool) "splits happened" true (splits () >= 2);
  (* the stub is no longer in the current page... *)
  let eng = Db.engine db in
  let ti = Db.table_info db "t" in
  let key = S.encode_key (S.V_int 99) in
  let pid = Imdb_core.Table.locate_page eng ti ~key in
  Imdb_buffer.Buffer_pool.with_page eng.E.pool pid (fun fr ->
      Alcotest.(check bool) "chain left the current page" true
        (Imdb_version.Vpage.find_current (Imdb_buffer.Buffer_pool.bytes fr) ~key = None));
  (* ...yet the snapshot writer must still conflict *)
  (match Db.upsert_row db t1 ~table:"t" (row 99 "lost-update") with
  | () -> Alcotest.fail "first-committer-wins violated through the time split"
  | exception Imdb_core.Table.Write_conflict _ -> ());
  Db.abort db t1;
  Db.close db

(* --- a page filled by one key's chain ------------------------------------ *)

(* Uncommitted versions stay on the current page through a time split,
   so one transaction's versions of one key can fill a page that neither
   split can empty: the key split finds no second key and says so. *)
let test_giant_key_chain () =
  let config = { E.default_config with E.page_size = 1024 } in
  let db, _ = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* snapshot isolation writes per row, so the split runs in the write *)
  let txn = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  let payload = String.make 150 'x' in
  (match
     for _ = 1 to 12 do
       Db.upsert db txn ~table:"t" ~key:"k" ~payload
     done
   with
  | () -> Alcotest.fail "twelve 150-byte versions fit one 1 KiB page"
  | exception Imdb_core.Table.Page_overflow msg ->
      let needle = "holds one giant key chain" in
      let n = String.length needle in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1)) in
      if not (has 0) then Alcotest.failf "unexpected overflow message: %s" msg);
  Db.abort db txn;
  Db.close db

let suite =
  [
    Alcotest.test_case "one-key page cannot split" `Quick test_giant_key_chain;
    Alcotest.test_case "TSB/chain equivalence" `Quick test_tsb_chain_equivalence;
    Alcotest.test_case "structures stay sound" `Quick test_structures_stay_sound;
    Alcotest.test_case "FCW through time split" `Quick test_fcw_through_time_split;
    Alcotest.test_case "split-store equivalence" `Quick test_split_store_equivalence;
    Alcotest.test_case "snapshot table GC pressure" `Quick test_snapshot_table_gc_pressure;
    Alcotest.test_case "snapshot reader blocks GC" `Quick test_snapshot_reader_blocks_gc;
    Alcotest.test_case "serializable interleaving" `Quick test_serializable_interleaving;
    QCheck_alcotest.to_alcotest prop_temporal_model;
  ]
