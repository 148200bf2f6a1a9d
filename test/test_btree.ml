(* B-tree: point ops, ordered iteration, floor/next search, splits,
   deletion with page reclamation, and a model-based property against
   Map. *)

module Disk = Imdb_storage.Disk
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module B = Imdb_btree.Btree

(* A standalone btree over a fresh pool with a trivial redo-only logger
   and a bump allocator: enough to exercise the structure in isolation. *)
let standalone_with_pool ?(page_size = 512) ?(capacity = 64) () =
  let disk = Disk.in_memory ~page_size () in
  let wal = Wal.open_device (Wal.Device.in_memory ()) in
  let pool = BP.create ~capacity ~disk ~wal () in
  (* page id 0 is the no_page sentinel (the meta page in the real engine) *)
  let next = ref 1 in
  let io =
    {
      B.exec =
        (fun fr ~undoable:_ op ->
          let lsn = Wal.append wal (LR.Redo_only { page_id = BP.page_id fr; op }) in
          LR.redo_op (BP.bytes fr) op;
          BP.mark_dirty_logged pool fr ~lsn);
      alloc =
        (fun ~ptype ~level ->
          let pid = !next in
          incr next;
          let fr = BP.pin_new pool pid in
          P.format (BP.bytes fr) ~page_id:pid ~page_type:ptype ~level ();
          BP.mark_dirty_logged pool fr ~lsn:0L;
          BP.unpin pool fr;
          pid);
      free = (fun pid -> BP.invalidate pool pid);
      atomic = (fun f -> Wal.atomically wal f);
    }
  in
  (B.create ~pool ~io ~table_id:1 ~name:"test" (), pool)

let standalone ?page_size ?capacity () = fst (standalone_with_pool ?page_size ?capacity ())

let v s = Bytes.of_string s
let k i = Printf.sprintf "key%05d" i

let test_insert_find () =
  let t = standalone () in
  Alcotest.(check bool) "empty find" true (B.find t ~key:"a" = None);
  B.insert t ~key:"a" ~value:(v "1");
  B.insert t ~key:"b" ~value:(v "2");
  Alcotest.(check bool) "find a" true (B.find t ~key:"a" = Some (v "1"));
  Alcotest.(check bool) "find b" true (B.find t ~key:"b" = Some (v "2"));
  Alcotest.(check bool) "find missing" true (B.find t ~key:"c" = None);
  (* replace *)
  B.insert t ~key:"a" ~value:(v "1'");
  Alcotest.(check bool) "replaced" true (B.find t ~key:"a" = Some (v "1'"));
  Alcotest.(check int) "count" 2 (B.count t)

let test_many_inserts_split () =
  let t = standalone () in
  let n = 500 in
  for i = 1 to n do
    B.insert t ~key:(k i) ~value:(v (string_of_int i))
  done;
  Alcotest.(check int) "all present" n (B.count t);
  Alcotest.(check int) "invariants hold" n (B.check_invariants t);
  for i = 1 to n do
    match B.find t ~key:(k i) with
    | Some value when Bytes.to_string value = string_of_int i -> ()
    | _ -> Alcotest.failf "key %d lost" i
  done

let test_descending_and_random_insert () =
  let t = standalone () in
  for i = 300 downto 1 do
    B.insert t ~key:(k i) ~value:(v "x")
  done;
  Alcotest.(check int) "descending inserts" 300 (B.check_invariants t);
  let t2 = standalone () in
  let rng = Imdb_util.Rng.create 5 in
  let keys = Array.init 300 (fun i -> i) in
  Imdb_util.Rng.shuffle rng keys;
  Array.iter (fun i -> B.insert t2 ~key:(k i) ~value:(v "y")) keys;
  Alcotest.(check int) "random inserts" 300 (B.check_invariants t2)

let test_iteration_order () =
  let t = standalone () in
  let rng = Imdb_util.Rng.create 9 in
  let keys = Array.init 200 (fun i -> i) in
  Imdb_util.Rng.shuffle rng keys;
  Array.iter (fun i -> B.insert t ~key:(k i) ~value:(v "z")) keys;
  let seen = ref [] in
  B.iter t (fun key _ -> seen := key :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "all iterated" 200 (List.length seen);
  Alcotest.(check bool) "sorted" true (seen = List.sort compare seen);
  (* bounded iteration *)
  let ranged = ref [] in
  B.iter ~from:(k 50) ~upto:(k 59) t (fun key _ -> ranged := key :: !ranged);
  Alcotest.(check int) "range size" 10 (List.length !ranged)

let test_floor_next () =
  let t = standalone () in
  List.iter (fun i -> B.insert t ~key:(k i) ~value:(v (string_of_int i))) [ 10; 20; 30 ];
  let floor key = Option.map fst (B.find_floor t ~key) in
  Alcotest.(check (option string)) "exact" (Some (k 20)) (floor (k 20));
  Alcotest.(check (option string)) "between" (Some (k 20)) (floor (k 25));
  Alcotest.(check (option string)) "below all" None (floor (k 5));
  Alcotest.(check (option string)) "above all" (Some (k 30)) (floor (k 99));
  let next key = Option.map fst (B.find_next t ~key) in
  Alcotest.(check (option string)) "next of exact" (Some (k 20)) (next (k 10));
  Alcotest.(check (option string)) "next between" (Some (k 30)) (next (k 25));
  Alcotest.(check (option string)) "next of max" None (next (k 30))

let test_delete () =
  let t = standalone () in
  for i = 1 to 300 do
    B.insert t ~key:(k i) ~value:(v "d")
  done;
  (* delete a stretch: the emptied leaves are reclaimed *)
  for i = 50 to 250 do
    Alcotest.(check bool) "delete present" true (B.delete t ~key:(k i))
  done;
  Alcotest.(check bool) "delete absent" false (B.delete t ~key:(k 60));
  Alcotest.(check int) "remaining" 99 (B.count t);
  Alcotest.(check int) "invariants after deletes" 99 (B.check_invariants t);
  Alcotest.(check bool) "floor over the gap" true
    (Option.map fst (B.find_floor t ~key:(k 200)) = Some (k 49));
  (* reinsert into the gap *)
  for i = 100 to 120 do
    B.insert t ~key:(k i) ~value:(v "r")
  done;
  Alcotest.(check int) "after reinsert" 120 (B.check_invariants t)

let test_large_values () =
  let t = standalone ~page_size:1024 () in
  let big = Bytes.make 300 'B' in
  B.insert t ~key:"big1" ~value:big;
  B.insert t ~key:"big2" ~value:big;
  B.insert t ~key:"big3" ~value:big;
  Alcotest.(check bool) "big value intact" true (B.find t ~key:"big2" = Some big);
  (* oversize entries are rejected cleanly *)
  (match B.insert t ~key:"huge" ~value:(Bytes.make 600 'H') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "oversize entry accepted")

(* Model-based property: random op sequences agree with Map. *)
let prop_vs_map =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 400)
        (frequency
           [
             (5, map (fun i -> `Insert (i mod 100)) nat);
             (2, map (fun i -> `Delete (i mod 100)) nat);
             (2, map (fun i -> `Find (i mod 100)) nat);
             (1, map (fun i -> `Floor (i mod 100)) nat);
           ]))
  in
  QCheck.Test.make ~name:"btree vs Map model" ~count:30 (QCheck.make gen)
    (fun ops ->
      let t = standalone ~page_size:512 () in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.iteri
        (fun step op ->
          match op with
          | `Insert i ->
              let key = k i and value = Printf.sprintf "v%d-%d" i step in
              B.insert t ~key ~value:(Bytes.of_string value);
              model := M.add key value !model
          | `Delete i ->
              let key = k i in
              let in_tree = B.delete t ~key in
              let in_model = M.mem key !model in
              if in_tree <> in_model then
                QCheck.Test.fail_reportf "delete presence mismatch on %s" key;
              model := M.remove key !model
          | `Find i ->
              let key = k i in
              let tree = Option.map Bytes.to_string (B.find t ~key) in
              let m = M.find_opt key !model in
              if tree <> m then QCheck.Test.fail_reportf "find mismatch on %s" key
          | `Floor i ->
              let key = k i in
              let tree = Option.map fst (B.find_floor t ~key) in
              let m =
                M.fold
                  (fun mk _ acc ->
                    if String.compare mk key <= 0 then
                      match acc with
                      | Some best when String.compare best mk >= 0 -> acc
                      | _ -> Some mk
                    else acc)
                  !model None
              in
              if tree <> m then QCheck.Test.fail_reportf "floor mismatch on %s" key)
        ops;
      (* final sweep *)
      ignore (B.check_invariants t);
      M.for_all
        (fun key value -> B.find t ~key = Some (Bytes.of_string value))
        !model
      && B.count t = M.cardinal !model)


(* The routing search binary-searches a directory built from the node's
   live cells; it must pick the same slot as a plain floor scan over the
   unsorted slot array, dead slots and the leftmost "" separator
   included. *)
let test_routing_directory_matches_scan () =
  let t, pool = standalone_with_pool ~page_size:4096 () in
  let rng = Imdb_util.Rng.create 11 in
  let node_cell key =
    let w = Imdb_util.Codec.Writer.create () in
    Imdb_util.Codec.Writer.lstring w key;
    Imdb_util.Codec.Writer.u32 w 7;
    Imdb_util.Codec.Writer.contents w
  in
  let rand_key () =
    String.init (1 + Imdb_util.Rng.int rng 4) (fun _ ->
        "abcd".[Imdb_util.Rng.int rng 4])
  in
  let scan_floor page key =
    let best = ref None in
    for slot = 0 to P.slot_count page - 1 do
      if P.slot_live page slot then begin
        let k = Imdb_util.Codec.Reader.(lstring (create (P.read_cell page slot))) in
        if String.compare k key <= 0 then
          match !best with
          | Some (bk, _) when String.compare bk k >= 0 -> ()
          | _ -> best := Some (k, slot)
      end
    done;
    Option.map snd !best
  in
  for round = 1 to 40 do
    let fr = BP.pin_new pool (1000 + round) in
    let page = BP.bytes fr in
    P.format page ~page_id:(1000 + round) ~page_type:P.P_index ~level:1 ();
    let used = Hashtbl.create 64 in
    let add key =
      if not (Hashtbl.mem used key) then begin
        Hashtbl.replace used key ();
        ignore (P.insert page (node_cell key))
      end
    in
    (* the "" cell sits at a random position in the slot array *)
    let n = 5 + Imdb_util.Rng.int rng 60 in
    let lead = Imdb_util.Rng.int rng n in
    for i = 0 to n - 1 do
      if i = lead then add "" else add (rand_key ())
    done;
    for slot = 0 to P.slot_count page - 1 do
      if P.slot_live page slot && Imdb_util.Rng.int rng 3 = 0 then begin
        let k = Imdb_util.Codec.Reader.(lstring (create (P.read_cell page slot))) in
        if k <> "" then begin
          P.delete_slot page slot;
          Hashtbl.remove used k
        end
      end
    done;
    (* later inserts may reuse dead slots *)
    for _ = 1 to Imdb_util.Rng.int rng 10 do
      add (rand_key ())
    done;
    let check phase =
      for _ = 1 to 50 do
        let key =
          match Imdb_util.Rng.int rng 10 with
          | 0 -> ""
          | 1 | 2 | 3 -> rand_key () ^ "b"
          | _ -> rand_key ()
        in
        match scan_floor page key with
        | None -> Alcotest.failf "round %d: no floor for %S" round key
        | Some want ->
            Alcotest.(check int)
              (Printf.sprintf "round %d %s floor of %S" round phase key)
              want (B.node_floor_slot t fr key)
      done
    in
    Alcotest.(check bool) "no directory before the first search" true (BP.keydir fr = None);
    check "fresh";
    Alcotest.(check bool) "first search builds the directory" true (BP.keydir fr <> None);
    (* a structure change dirties the node; the next search rebuilds *)
    add (rand_key () ^ "c");
    BP.mark_dirty_unlogged pool fr;
    Alcotest.(check bool) "dirtying drops the directory" true (BP.keydir fr = None);
    check "rebuilt";
    BP.unpin pool fr
  done

(* Conventional writes search their leaf twice (existence check, then
   insert) and then dirty it: no leaf may ever carry a directory, and on
   a warm tree the routing nodes' directories survive leaf writes. *)
let test_conventional_updates_build_no_directories () =
  let module Db = Imdb_core.Db in
  let module Mx = Imdb_obs.Metrics in
  let db, _ = Helpers.fresh_db () in
  Db.create_table db ~name:"c" ~mode:Db.Conventional ~schema:Helpers.kv_schema;
  let payload i = Printf.sprintf "%-100d" i in
  for batch = 0 to 5 do
    Db.exec db (fun txn ->
        for i = batch * 100 to (batch * 100) + 99 do
          Db.insert_row db txn ~table:"c" (Helpers.row i (payload i))
        done)
  done;
  let pool = (Db.engine db).Imdb_core.Engine.pool in
  let root = (Db.table_info db "c").Imdb_core.Catalog.ti_root in
  Alcotest.(check int) "two-level tree" 1
    (BP.with_page pool root (fun fr -> P.level (BP.bytes fr)));
  let update i =
    Db.exec db (fun txn -> Db.update_row db txn ~table:"c" (Helpers.row i (payload (i + 1))))
  in
  (* warm: every routing node has been searched once *)
  for i = 0 to 9 do update (i * 60) done;
  let m = Db.metrics db in
  let misses0 = Mx.get m Mx.keydir_misses and hits0 = Mx.get m Mx.keydir_hits in
  let rng = Imdb_util.Rng.create 3 in
  for _ = 1 to 200 do update (Imdb_util.Rng.int rng 600) done;
  Alcotest.(check int) "no directory builds" 0 (Mx.get m Mx.keydir_misses - misses0);
  Alcotest.(check bool) "routing searches hit" true (Mx.get m Mx.keydir_hits - hits0 >= 200);
  List.iter
    (fun pid ->
      BP.with_page pool pid (fun fr ->
          if P.level (BP.bytes fr) = 0 && BP.keydir fr <> None then
            Alcotest.failf "leaf frame %d holds a key directory" pid))
    (BP.cached_page_ids pool);
  Alcotest.(check bool) "root keeps its directory" true
    (BP.with_page pool root (fun fr -> BP.keydir fr <> None))

(* A standalone tree whose allocator logs each page's format, so the
   whole tree can be rebuilt from its log alone; [logged] holds every
   page op the tree logged, newest first. *)
let logged_standalone ?(page_size = 512) () =
  let disk = Disk.in_memory ~page_size () in
  let device = Wal.Device.in_memory () in
  let wal = Wal.open_device device in
  let pool = BP.create ~capacity:256 ~disk ~wal () in
  let next = ref 1 and logged = ref [] in
  let exec fr op =
    logged := op :: !logged;
    let lsn = Wal.append wal (LR.Redo_only { page_id = BP.page_id fr; op }) in
    LR.redo_op (BP.bytes fr) op;
    BP.mark_dirty_logged pool fr ~lsn
  in
  let io =
    {
      B.exec = (fun fr ~undoable:_ op -> exec fr op);
      alloc =
        (fun ~ptype ~level ->
          let pid = !next in
          incr next;
          let fr = BP.pin_new pool pid in
          P.set_page_id (BP.bytes fr) pid;
          exec fr (LR.Op_format { page_type = ptype; table_id = 1; level });
          BP.unpin pool fr;
          pid);
      free = (fun pid -> BP.invalidate pool pid);
      atomic = (fun f -> Wal.atomically wal f);
    }
  in
  (B.create ~pool ~io ~table_id:1 ~name:"test" (), wal, device, logged)

let count_ops logged p = List.length (List.filter p logged)
let is_image = function LR.Op_image _ -> true | _ -> false
let is_insert = function LR.Op_insert _ -> true | _ -> false
let is_replace = function LR.Op_replace _ -> true | _ -> false

(* Every key of [expect] (key, value) is found with its value, and the
   tree holds nothing else, walked from the root and along the leaf
   chain. *)
let check_contents what t expect =
  Alcotest.(check int) (what ^ ": invariants hold") (List.length expect) (B.check_invariants t);
  Alcotest.(check int) (what ^ ": leaf chain") (List.length expect) (B.count t);
  List.iter
    (fun (key, value) ->
      if B.find t ~key <> Some (v value) then Alcotest.failf "%s: %s lost" what key)
    expect

let evens lo hi value = List.init ((hi - lo) / 2 + 1) (fun i -> (k (lo + (2 * i)), value))

(* A sorted batch beyond the largest key fills fresh leaves and logs each
   full one as a single image: no split, and an [Op_insert] only for the
   part of a leaf too small to earn an image. *)
let test_insert_batch_right_edge () =
  let t, _, _, logged = logged_standalone () in
  let first = evens 2 100 "a" in
  B.insert_batch t (List.map (fun (key, value) -> (key, v value)) first);
  check_contents "first batch" t first;
  logged := [];
  let batch = evens 102 900 "b" in
  B.insert_batch t (List.map (fun (key, value) -> (key, v value)) batch);
  let images = count_ops !logged is_image and inserts = count_ops !logged is_insert in
  Alcotest.(check bool)
    (Printf.sprintf "%d leaf images span at least 3 leaves" images)
    true (images >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "%d inserts for %d entries: only a residue" inserts (List.length batch))
    true
    (inserts * 4 < List.length batch);
  check_contents "after the append" t (first @ batch)

(* Entries below the tree's largest key take the general path: they land
   between existing keys and replace values in place, while the same
   batch's entries beyond the largest key are still appended as whole
   leaves. *)
let test_insert_batch_below_max () =
  let t, _, _, logged = logged_standalone () in
  let base = evens 2 600 "a" in
  B.insert_batch t (List.map (fun (key, value) -> (key, v value)) base);
  logged := [];
  let odds = List.init 50 (fun i -> (k ((2 * i) + 1), "o")) in
  let replaced = evens 2 40 "r" in
  let beyond = evens 602 1400 "b" in
  B.insert_batch t (List.map (fun (key, value) -> (key, v value)) (beyond @ odds @ replaced));
  Alcotest.(check int) "each existing key replaced in place" (List.length replaced)
    (count_ops !logged is_replace);
  let inserts = count_ops !logged is_insert in
  Alcotest.(check bool)
    (Printf.sprintf "%d inserts: one per entry below the largest key, a residue beyond it"
       inserts)
    true
    (inserts < List.length odds + (List.length beyond / 4));
  let expect =
    beyond @ odds @ replaced
    @ List.filter (fun (key, _) -> not (List.mem_assoc key replaced)) base
  in
  check_contents "after the mixed batch" t expect

(* A crash after an appended batch's groups reached the log, and another
   batch still in the volatile tail: redo of the log onto empty pages
   rebuilds the tree with the first batch and without the second. *)
let test_insert_batch_crash_redo () =
  let page_size = 512 in
  let t, wal, device, _ = logged_standalone ~page_size () in
  let durable = evens 2 700 "d" in
  B.insert_batch t (List.map (fun (key, value) -> (key, v value)) durable);
  Wal.flush wal;
  B.insert_batch t (List.init 100 (fun i -> (k (800 + i), v "lost")));
  Wal.crash_volatile wal;
  let disk = Disk.in_memory ~page_size () in
  let wal = Wal.open_device device in
  let pool = BP.create ~capacity:256 ~disk ~wal () in
  Wal.iter_from wal ~from_lsn:0L (fun lsn body ->
      match body with
      | LR.Redo_only { page_id; op } ->
          let fr =
            if BP.is_cached pool page_id then BP.pin pool page_id
            else begin
              let fr = BP.pin_new pool page_id in
              P.set_page_id (BP.bytes fr) page_id;
              fr
            end
          in
          LR.redo_op (BP.bytes fr) op;
          BP.mark_dirty_logged pool fr ~lsn;
          BP.unpin pool fr
      | _ -> ());
  let fail _ = Alcotest.fail "the redone tree is read-only" in
  let io =
    { B.exec = (fun _ ~undoable:_ _ -> fail ()); alloc = (fun ~ptype:_ ~level:_ -> fail ());
      free = fail; atomic = (fun f -> f ()) }
  in
  let redone = B.attach ~pool ~io ~root:(B.root t) ~table_id:1 ~name:"redone" () in
  check_contents "after redo" redone durable;
  Alcotest.(check bool) "the volatile batch is gone" true (B.find redone ~key:(k 800) = None)

(* The walk reads the leaf chain: breaking one back link of a healthy
   multi-leaf tree must raise. *)
let test_leaf_chain_checked () =
  let t, pool = standalone_with_pool () in
  for i = 1 to 300 do
    B.insert t ~key:(k i) ~value:(v (string_of_int i))
  done;
  Alcotest.(check int) "healthy tree" 300 (B.check_invariants t);
  (* a leaf with a left neighbour: page ids are handed out from 1 *)
  let rec linked pid =
    let prev =
      BP.with_page pool pid (fun fr ->
          let page = BP.bytes fr in
          if P.level page = 0 then P.prev_page page else P.no_page)
    in
    if prev <> P.no_page then pid else linked (pid + 1)
  in
  let leaf = linked 1 in
  BP.with_page pool leaf (fun fr -> P.set_prev_page (BP.bytes fr) P.no_page);
  match B.check_invariants t with
  | _ -> Alcotest.fail "a broken back link went unnoticed"
  | exception B.Invariant_violation _ -> ()

let suite =
  [
    Alcotest.test_case "insert & find" `Quick test_insert_find;
    Alcotest.test_case "splits under load" `Quick test_many_inserts_split;
    Alcotest.test_case "descending & random inserts" `Quick test_descending_and_random_insert;
    Alcotest.test_case "iteration order" `Quick test_iteration_order;
    Alcotest.test_case "floor & next" `Quick test_floor_next;
    Alcotest.test_case "delete & reclaim" `Quick test_delete;
    Alcotest.test_case "large values" `Quick test_large_values;
    Alcotest.test_case "insert_batch right-edge append" `Quick test_insert_batch_right_edge;
    Alcotest.test_case "insert_batch below the maximum" `Quick test_insert_batch_below_max;
    Alcotest.test_case "insert_batch crash and redo" `Quick test_insert_batch_crash_redo;
    Alcotest.test_case "routing directory = floor scan" `Quick test_routing_directory_matches_scan;
    Alcotest.test_case "conventional updates build no directories" `Quick
      test_conventional_updates_build_no_directories;
    QCheck_alcotest.to_alcotest prop_vs_map;
    Alcotest.test_case "leaf chain is checked" `Quick test_leaf_chain_checked;
  ]
