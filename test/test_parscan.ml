(* The temporal read path: AS OF scans, point reads and history walks
   over a history larger than the buffer pool.

   Current pages are pinned and stamped in the pool; history pages,
   immutable once a time split writes them, are served from the engine's
   decoded-image memo ([Engine.history_page]), each entry with the
   version directory scans and history walks build for it (point reads
   never do).  Answers and the visit accounting (asof.pages /
   asof.versions) must not depend on where a history page came from —
   cold memo, warm memo, or a freshly recovered engine — and the memo
   must only ever hold fully stamped history images (and directories)
   equal to the page they were read from.  Also the regression: a
   windowed AS OF scan whose answer spans several historical pages must
   agree with pointwise lookups. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module P = Imdb_storage.Page
module V = Imdb_version.Vpage
module BP = Imdb_buffer.Buffer_pool

let config ?(pool_capacity = 16) ?(tsb = false) () =
  { default_config with E.page_size = 1024; pool_capacity; tsb_enabled = tsb }

let fresh ?pool_capacity () =
  let db, clock = fresh_db ~config:(config ?pool_capacity ()) () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock)

let k i = Printf.sprintf "k%03d" i

(* Apply [ops] as one-commit transactions; a delete of an absent key is
   rewritten to an upsert so any generated sequence is total.  Payload
   lengths vary with the step so pages fill and time-split. *)
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
                Db.upsert db txn ~table:"t" ~key
                  ~payload:
                    (Printf.sprintf "v%d-%s-%s" step key (String.make (step mod 48) 'x')))
      in
      tick clock;
      ts)
    ops

(* Rounds of upserts with varying payload sizes: deep history chains and
   (with enough keys) router key splits. *)
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
let memo_size db = Hashtbl.length (Db.engine db).E.hist_decoded

(* memo entries whose version directory a scan or history walk built *)
let memo_indexed db =
  Hashtbl.fold
    (fun _ h n -> if Lazy.is_val h.E.hi_dir then n + 1 else n)
    (Db.engine db).E.hist_decoded 0

let history_pages db =
  let disk = (Db.engine db).E.disk in
  List.length
    (List.filter
       (fun pid ->
         match P.page_type (disk.Imdb_storage.Disk.read_page pid) with
         | P.P_history | P.P_history_compressed -> true
         | _ -> false)
       (List.init (disk.Imdb_storage.Disk.page_count ()) Fun.id))

(* --- property: the memo never changes an answer or the accounting ------ *)

type observation = {
  o_answers : string list;  (* every query result, printed *)
  o_pages : int;
  o_versions : int;
  o_indexed_before_scans : int;  (* memo directories after the point reads *)
}

(* Point reads at [probes], then full and windowed AS OF scans, then the
   history of a few keys; the answers, the asof visit counters, and how
   many memo entries had a directory once the point reads were done. *)
let observe db probes =
  let m = Db.metrics db in
  let before = M.snapshot m in
  let pr = Fmt.str "%a" Fmt.(Dump.list (Dump.pair string string)) in
  let points =
    List.map
      (fun ts ->
        Fmt.str "%a"
          Fmt.(Dump.list (Dump.option string))
          (List.map
             (fun i -> Db.as_of db ts (fun txn -> Db.get db txn ~table:"t" ~key:(k i)))
             [ 0; 3; 11; 29; 31 ]))
      probes
  in
  let indexed = memo_indexed db in
  let scans =
    List.concat_map
      (fun ts -> [ pr (collect db ts); pr (collect ~lo:(k 5) ~hi:(k 22) db ts) ])
      probes
  in
  let answers =
    points @ scans
    @ List.map
        (fun i ->
          Fmt.str "%a"
            Fmt.(Dump.list (Dump.pair Ts.pp (Dump.option string)))
            (hist db (k i)))
        [ 0; 7; 15; 29 ]
  in
  let d = M.diff ~before ~after:(M.snapshot m) in
  let get name = Option.value ~default:0 (List.assoc_opt name d) in
  {
    o_answers = answers;
    o_pages = get M.asof_pages;
    o_versions = get M.asof_versions;
    o_indexed_before_scans = indexed;
  }

let prop_memo_transparent =
  let gen =
    QCheck.Gen.(
      list_size (int_range 150 250)
        (pair
           (frequency [ (4, return `Upsert); (1, return `Delete) ])
           (int_bound 30)))
  in
  let pool_capacity = 8 in
  QCheck.Test.make
    ~name:"AS OF/get/history identical: cold memo, warm memo, after crash" ~count:8
    (QCheck.make gen) (fun ops ->
      let db, clock = fresh ~pool_capacity () in
      let tss = apply db clock ops in
      (* land buffered writes with a current read, then put everything on
         stable storage: the three observations see one page structure *)
      ignore (Db.exec db (fun txn -> Db.get db txn ~table:"t" ~key:(k 0)));
      flush db;
      if history_pages db <= pool_capacity then
        QCheck.Test.fail_reportf "history (%d pages) fits the %d-frame pool"
          (history_pages db) pool_capacity;
      let n = List.length tss in
      let probes = List.map (List.nth tss) [ 0; n / 4; n / 2; 3 * n / 4; n - 1 ] in
      if memo_size db <> 0 then QCheck.Test.fail_report "memo not cold";
      let cold = observe db probes in
      if memo_size db = 0 then QCheck.Test.fail_report "memo still empty";
      if cold.o_indexed_before_scans <> 0 then
        QCheck.Test.fail_report "a point read built a directory";
      if memo_indexed db = 0 then QCheck.Test.fail_report "no scan built a directory";
      let hits0 = M.get (Db.metrics db) M.histcache_hits in
      let warm = observe db probes in
      if M.get (Db.metrics db) M.histcache_hits = hits0 then
        QCheck.Test.fail_report "warm pass never hit the memo";
      let db' = Db.crash_and_reopen ~clock db in
      if memo_size db' <> 0 then QCheck.Test.fail_report "memo survived a crash";
      let reopened = observe db' probes in
      if reopened.o_indexed_before_scans <> 0 then
        QCheck.Test.fail_report "a point read built a directory after the crash";
      Db.close db';
      List.iter
        (fun (what, o) ->
          if o.o_answers <> cold.o_answers then
            QCheck.Test.fail_reportf "%s answers diverged from cold" what;
          if o.o_pages <> cold.o_pages || o.o_versions <> cold.o_versions then
            QCheck.Test.fail_reportf
              "%s accounting diverged: pages %d vs %d, versions %d vs %d" what
              o.o_pages cold.o_pages o.o_versions cold.o_versions)
        [ ("warm", warm); ("reopened", reopened) ];
      true)

(* --- the memo holds only immutable, stamped history -------------------- *)

let test_memo_immutable () =
  (* a pool that never evicts and is never flushed: history exists only
     as dirty frames *)
  let db, clock = fresh ~pool_capacity:512 () in
  let tss = churn db clock ~keys:24 ~rounds:20 in
  let read_history () =
    List.iteri (fun i ts -> if i mod 17 = 0 then ignore (collect db ts)) tss;
    List.iter (fun i -> ignore (hist db (k i))) [ 0; 5; 11; 23 ];
    List.iteri
      (fun i ts ->
        if i mod 29 = 0 then
          ignore (Db.as_of db ts (fun txn -> Db.get db txn ~table:"t" ~key:(k (i mod 24)))))
      tss
  in
  read_history ();
  (* a live transaction leaves unstamped versions in current pages (and
     time-splits some of them) while the memo is warm and refilled *)
  let live = Db.begin_txn db in
  List.iter
    (fun i ->
      Db.upsert db live ~table:"t" ~key:(k i) ~payload:(String.make 60 (Char.chr (65 + i))))
    (List.init 12 (fun i -> 12 + i));
  ignore (churn db clock ~keys:12 ~rounds:2);
  read_history ();
  let eng = Db.engine db in
  Alcotest.(check bool) "memo populated" true (memo_size db > 0);
  Alcotest.(check bool) "history never flushed" true (history_pages db = 0);
  Alcotest.(check bool) "directories built" true (memo_indexed db > 0);
  Hashtbl.iter
    (fun pid h ->
      let img = h.E.hi_image in
      Alcotest.(check bool) "a history image" true (P.page_type img = P.P_history);
      Alcotest.(check bool) "fully stamped" true (not (V.has_unstamped img));
      let pooled =
        BP.with_page eng.E.pool pid (fun fr -> Imdb_storage.Vcompress.decode (BP.bytes fr))
      in
      Alcotest.(check bool) "equals the decoded pool page" true (Bytes.equal img pooled);
      if Lazy.is_val h.E.hi_dir then
        Alcotest.(check bool) "directory of the decoded pool page" true
          (Lazy.force h.E.hi_dir = V.directory pooled))
    eng.E.hist_decoded;
  ignore (Db.commit db live);
  let victim =
    Hashtbl.fold
      (fun pid h acc -> if Lazy.is_val h.E.hi_dir then pid else acc)
      eng.E.hist_decoded 0
  in
  E.free_page eng victim;
  Alcotest.(check bool) "free_page evicts its id and directory" false
    (Hashtbl.mem eng.E.hist_decoded victim);
  Db.close db

(* --- regression: window spanning several history pages ----------------- *)

let scan_vs_pointwise db ts ~lo_i ~hi_i =
  let got = collect ~lo:(k lo_i) ~hi:(k hi_i) db ts in
  let expected =
    List.filter_map
      (fun i ->
        Db.as_of db ts (fun txn -> Db.get db txn ~table:"t" ~key:(k i))
        |> Option.map (fun v -> (k i, v)))
      (List.init (hi_i - lo_i) (fun d -> lo_i + d))
  in
  Alcotest.(check (list (pair string string))) "window vs pointwise" expected got

let test_range_spans_history_pages ~tsb () =
  let db, clock = fresh_db ~config:(config ~pool_capacity:32 ~tsb ()) () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* enough keys for router key splits, enough rounds for deep chains:
     a window's answer then lives in several historical pages *)
  let tss = churn db clock ~keys:60 ~rounds:12 in
  let n = List.length tss in
  List.iter
    (fun idx ->
      let ts = List.nth tss idx in
      scan_vs_pointwise db ts ~lo_i:0 ~hi_i:60;
      scan_vs_pointwise db ts ~lo_i:10 ~hi_i:45)
    [ n / 10; n / 3; n / 2; 3 * n / 4; n - 1 ];
  Db.close db

let suite =
  [
    QCheck_alcotest.to_alcotest prop_memo_transparent;
    Alcotest.test_case "memo holds only immutable stamped history" `Quick
      test_memo_immutable;
    Alcotest.test_case "AS OF window spans history pages (chain)" `Quick
      (test_range_spans_history_pages ~tsb:false);
    Alcotest.test_case "AS OF window spans history pages (TSB)" `Quick
      (test_range_spans_history_pages ~tsb:true);
  ]
