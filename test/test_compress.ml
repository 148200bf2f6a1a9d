(* Delta-compressed history pages.

   The codec must round-trip every history page the engine stores
   (chains with delete stubs, single-version chains, redundant split
   copies); compressed history must answer exactly what the applied
   operations say — AS OF scans and histories against a model — with
   the same [asof.*] work whether the history memo is cold or warm; the
   history footprint must be what the compression counters account for;
   a plain [P_history] page on stable storage (what a page the codec
   declines keeps) must read the same through every path and across a
   crash; and crash recovery must rebuild compressed pages from their
   trimmed log images. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module P = Imdb_storage.Page
module Vc = Imdb_storage.Vcompress
module BP = Imdb_buffer.Buffer_pool
module SMap = Map.Make (String)

let config =
  { default_config with E.page_size = 1024; pool_capacity = 16; tsb_enabled = false }

let fresh () =
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock)

let k i = Printf.sprintf "k%03d" i
let payload step key = Printf.sprintf "v%d-%s" step key

(* Same op-application discipline as test_parscan: deletes of absent keys
   become upserts so any generated sequence is total, and the clock ticks
   identically per commit. *)
let apply db clock ops =
  let present = Hashtbl.create 32 in
  List.mapi
    (fun step (kind, i) ->
      let key = k i in
      let ts =
        commit_write db (fun txn ->
            match kind with
            | `Delete when Hashtbl.mem present key ->
                Hashtbl.remove present key;
                Db.delete db txn ~table:"t" ~key
            | _ ->
                Hashtbl.replace present key ();
                Db.upsert db txn ~table:"t" ~key ~payload:(payload step key))
      in
      tick clock;
      ts)
    ops

(* What the engine must answer after [apply ops] returned [tss]: the
   table's sorted contents as of each commit, and each key's history
   (newest first, [None] for a delete). *)
let model ops tss =
  let state = ref SMap.empty and hists = Hashtbl.create 32 in
  let states =
    List.mapi
      (fun step ((kind, i), ts) ->
        let key = k i in
        let v =
          match kind with
          | `Delete when SMap.mem key !state -> None
          | _ -> Some (payload step key)
        in
        state :=
          (match v with
          | None -> SMap.remove key !state
          | Some p -> SMap.add key p !state);
        let older = Option.value ~default:[] (Hashtbl.find_opt hists key) in
        Hashtbl.replace hists key ((ts, v) :: older);
        (ts, SMap.bindings !state))
      (List.combine ops tss)
  in
  (states, fun key -> Option.value ~default:[] (Hashtbl.find_opt hists key))

let churn db clock ~keys ~rounds =
  List.concat_map
    (fun r ->
      List.map
        (fun i ->
          let ts =
            commit_write db (fun txn ->
                Db.upsert db txn ~table:"t" ~key:(k i)
                  ~payload:
                    (Printf.sprintf "r%d-%s-%s" r (k i)
                       (String.make (20 + ((r * 7) + i mod 40)) 'x')))
          in
          tick clock;
          ts)
        (List.init keys Fun.id))
    (List.init rounds Fun.id)

let collect ?lo ?hi db ts =
  let out = ref [] in
  Db.as_of db ts (fun txn ->
      Db.scan ?lo ?hi db txn ~table:"t" (fun key v -> out := (key, v) :: !out));
  List.rev !out

let hist db key = Db.exec db (fun txn -> Db.history db txn ~table:"t" ~key)
let flush db = BP.flush_all (Db.engine db).E.pool

(* Every page on stable storage, with its id. *)
let stored_pages db =
  let disk = (Db.engine db).E.disk in
  List.init (disk.Imdb_storage.Disk.page_count ()) (fun pid ->
      (pid, disk.Imdb_storage.Disk.read_page pid))

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 80 160)
      (pair
         (frequency [ (4, return `Upsert); (1, return `Delete) ])
         (int_bound 24)))

(* --- property: the codec round-trips every stored history page --------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trips engine-built history pages"
    ~count:10 (QCheck.make ops_gen) (fun ops ->
      let db, clock = fresh () in
      ignore (apply db clock ops);
      ignore (churn db clock ~keys:10 ~rounds:5);
      flush db;
      let exercised = ref 0 in
      List.iter
        (fun (_, stored) ->
          if Vc.is_compressed stored then begin
            incr exercised;
            (* the plain image the time split built; encoding it again
               must give back exactly the trimmed image the split logged,
               which reaches storage zero-filled to page size *)
            let plain = Vc.decode stored in
            if P.page_type plain <> P.P_history then
              QCheck.Test.fail_report "decode produced a non-history page";
            match Vc.encode plain with
            | None -> QCheck.Test.fail_report "the codec declined a page it had encoded"
            | Some c ->
                let n = Bytes.length c in
                if Vc.encoded_size c <> n then
                  QCheck.Test.fail_report "encoded_size disagrees with image";
                if n >= Bytes.length plain then
                  QCheck.Test.fail_report "compressed image did not shrink";
                let full = Bytes.make (Bytes.length plain) '\000' in
                Bytes.blit c 0 full 0 n;
                if not (Bytes.equal full stored) then
                  QCheck.Test.fail_report "encode(decode(page)) <> stored page"
          end)
        (stored_pages db);
      Db.close db;
      if !exercised = 0 then
        QCheck.Test.fail_report "workload stored no compressed history page";
      true)

(* --- property: compressed history answers what the ops say ------------ *)

let prop_transparent =
  QCheck.Test.make
    ~name:"compressed history = model (scans, histories; cold = warm work)"
    ~count:8
    (QCheck.make ops_gen) (fun ops ->
      let db, clock = fresh () in
      let tss = apply db clock ops in
      let states, model_hist = model ops tss in
      flush db;
      if M.get (Db.metrics db) M.compress_pages = 0 then
        QCheck.Test.fail_report "workload compressed no history page";
      let n = List.length tss in
      let probes = List.map (List.nth states) [ 0; n / 4; n / 2; 3 * n / 4; n - 1 ] in
      let in_window (key, _) = key >= k 4 && key < k 18 in
      (* one pass of every probe; its asof.* work *)
      let pass () =
        let m = Db.metrics db in
        let before = M.snapshot m in
        List.iter
          (fun (ts, expect) ->
            if collect db ts <> expect then
              QCheck.Test.fail_reportf "AS OF %s scan differs from the model"
                (Ts.to_string ts);
            if collect ~lo:(k 4) ~hi:(k 18) db ts <> List.filter in_window expect then
              QCheck.Test.fail_reportf "windowed AS OF %s scan differs from the model"
                (Ts.to_string ts))
          probes;
        List.iter
          (fun i ->
            if hist db (k i) <> model_hist (k i) then
              QCheck.Test.fail_reportf "history of %s differs from the model" (k i))
          [ 0; 7; 13; 23 ];
        let d = M.diff ~before ~after:(M.snapshot m) in
        let get name = Option.value ~default:0 (List.assoc_opt name d) in
        (get M.asof_pages, get M.asof_versions)
      in
      if Hashtbl.length (Db.engine db).E.hist_decoded <> 0 then
        QCheck.Test.fail_report "memo not cold";
      let cold = pass () in
      let warm = pass () in
      if cold <> warm then
        QCheck.Test.fail_reportf
          "asof work differs: cold (%d pages, %d versions), warm (%d, %d)" (fst cold)
          (snd cold) (fst warm) (snd warm);
      Db.close db;
      true)

(* --- the footprint is what the counters account for ------------------- *)

let test_footprint () =
  let db, clock = fresh () in
  ignore (churn db clock ~keys:12 ~rounds:10);
  let m = Db.metrics db in
  let g = M.get m in
  let page = config.E.page_size in
  Db.close db;
  Alcotest.(check bool) "compressed pages written" true (g M.compress_pages > 0);
  Alcotest.(check int) "every split image was offered to the codec"
    (g M.time_splits) (g M.compress_pages + g M.compress_fallbacks);
  Alcotest.(check int) "raw bytes are whole plain pages"
    (g M.compress_pages * page) (g M.compress_raw_bytes);
  Alcotest.(check int) "history bytes = compressed images + plain fallbacks"
    (g M.compress_written_bytes + (g M.compress_fallbacks * page))
    (g M.hist_bytes_written);
  Alcotest.(check bool)
    (Printf.sprintf "history bytes shrink (%d raw -> %d written)"
       (g M.compress_raw_bytes) (g M.compress_written_bytes))
    true
    (g M.compress_written_bytes < g M.compress_raw_bytes)

(* --- plain history pages on stable storage ----------------------------- *)

(* The codec declines an image it cannot reproduce byte for byte, and the
   split then keeps the plain page.  A time split's own output never
   needs that (at the engine's timestamp and length values every encoded
   cell is shorter than its plain form), so this test writes plain pages
   to storage itself: each compressed
   history page is replaced in place by its decoded, resealed image — the
   page a decline would have stored, at the same LSN so recovery leaves
   it alone.  Every read path must see the same answers from it, before
   and after a crash. *)
let test_plain_pages_read () =
  let db, clock = fresh () in
  let tss = churn db clock ~keys:10 ~rounds:8 in
  let probes = List.filteri (fun i _ -> i mod 7 = 0) tss in
  let answers db =
    ( List.map (fun ts -> collect db ts) probes,
      List.map (fun ts -> collect ~lo:(k 2) ~hi:(k 7) db ts) probes,
      List.map
        (fun ts ->
          Db.as_of db ts (fun txn -> Db.get db txn ~table:"t" ~key:(k 3)))
        probes,
      List.map (fun i -> hist db (k i)) [ 0; 3; 9 ] )
  in
  let expect = answers db in
  flush db;
  (* a plain P_history image is what the codec rejects *)
  let plain =
    List.filter_map
      (fun (pid, stored) ->
        if Vc.is_compressed stored then Some (pid, Vc.decode stored) else None)
      (stored_pages db)
  in
  Alcotest.(check bool) "history pages were compressed" true (plain <> []);
  List.iter
    (fun (_, img) ->
      Alcotest.(check bool) "the codec declines a plain page with garbage" true
        (let b = Bytes.copy img in
         P.delete_slot b 0;
         Vc.encode b = None))
    plain;
  let disk = (Db.engine db).E.disk in
  List.iter
    (fun (pid, img) ->
      P.seal img;
      disk.Imdb_storage.Disk.write_page pid img)
    plain;
  let db = Db.crash_and_reopen ~config ~clock db in
  let read_back db =
    Alcotest.(check bool) "answers from plain pages" true (answers db = expect);
    (* recovery left the plain pages alone: readers saw plain images *)
    let pool = (Db.engine db).E.pool in
    List.iter
      (fun (pid, _) ->
        Alcotest.(check bool) "page is plain" true
          (BP.with_page pool pid (fun fr -> P.page_type (BP.bytes fr)) = P.P_history))
      plain
  in
  read_back db;
  let db = Db.crash_and_reopen ~config ~clock db in
  read_back db;
  Db.close db

(* --- recovery rebuilds compressed pages from trimmed log images -------- *)

let test_recovery_compressed () =
  let db, clock = fresh () in
  let tss = churn db clock ~keys:10 ~rounds:8 in
  List.iter
    (fun i ->
      ignore (commit_write db (fun txn -> Db.delete db txn ~table:"t" ~key:(k i)));
      tick clock)
    [ 0; 1; 2 ];
  Alcotest.(check bool)
    "workload produced compressed pages" true
    (M.get (Db.metrics db) M.compress_pages > 0);
  let mid = List.nth tss (List.length tss / 2) in
  let expect_mid = collect db mid in
  let expect_hist = hist db (k 3) in
  let db = Db.crash_and_reopen ~config ~clock db in
  Alcotest.(check (list (pair string string)))
    "AS OF scan survives recovery" expect_mid (collect db mid);
  Alcotest.(check bool)
    "history survives recovery" true (expect_hist = hist db (k 3));
  Db.close db

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_transparent;
    Alcotest.test_case "history footprint shrinks under compression" `Quick
      test_footprint;
    Alcotest.test_case "plain history pages read the same, across crashes" `Quick
      test_plain_pages_read;
    Alcotest.test_case "recovery rebuilds compressed history" `Quick
      test_recovery_compressed;
  ]
