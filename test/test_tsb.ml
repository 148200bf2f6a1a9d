(* TSB-tree: rectangle search, node splits, and equivalence with a naive
   rectangle list under randomized insertion. *)

module Disk = Imdb_storage.Disk
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module Tsb = Imdb_tsb.Tsb
module Ts = Imdb_clock.Timestamp

(* A TSB-tree over its own in-memory pool and log, with the pool and the
   log returned too, so a test can read every index page back. *)
let standalone_parts ?(page_size = 512) () =
  let disk = Disk.in_memory ~page_size () in
  let wal = Wal.open_device (Wal.Device.in_memory ()) in
  let pool = BP.create ~capacity:128 ~disk ~wal () in
  let next = ref 1 in
  let io =
    {
      Tsb.exec =
        (fun fr op ->
          let lsn = Wal.append wal (LR.Redo_only { page_id = BP.page_id fr; op }) in
          LR.redo_op (BP.bytes fr) op;
          BP.mark_dirty_logged pool fr ~lsn);
      alloc =
        (fun ~level ->
          let pid = !next in
          incr next;
          let fr = BP.pin_new pool pid in
          P.format (BP.bytes fr) ~page_id:pid ~page_type:P.P_tsb_index ~level ();
          BP.mark_dirty_logged pool fr ~lsn:0L;
          BP.unpin pool fr;
          pid);
    }
  in
  (Tsb.create ~pool ~io ~table_id:1, pool, wal, next)

let standalone ?page_size () =
  let t, _, _, _ = standalone_parts ?page_size () in
  t

let ts ms = Ts.make ~ttime:(Int64.of_int ms) ~sn:0

let rect ?(klo = "") ?khi ~t0 ~t1 () =
  { Tsb.key_low = klo; key_high = khi; t_low = ts t0; t_high = ts t1 }

let test_basic_find () =
  let t = standalone () in
  Tsb.insert t ~rect:(rect ~t0:0 ~t1:100 ()) ~child:50;
  Tsb.insert t ~rect:(rect ~t0:100 ~t1:200 ()) ~child:51;
  Alcotest.(check (option int)) "first slice" (Some 50) (Tsb.find t ~key:"x" ~ts:(ts 40));
  Alcotest.(check (option int)) "boundary belongs right" (Some 51)
    (Tsb.find t ~key:"x" ~ts:(ts 100));
  Alcotest.(check (option int)) "second slice" (Some 51) (Tsb.find t ~key:"x" ~ts:(ts 150));
  Alcotest.(check (option int)) "beyond" None (Tsb.find t ~key:"x" ~ts:(ts 250))

let test_key_partitioned () =
  let t = standalone () in
  Tsb.insert t ~rect:(rect ~klo:"" ~khi:"m" ~t0:0 ~t1:100 ()) ~child:60;
  Tsb.insert t ~rect:(rect ~klo:"m" ~t0:0 ~t1:100 ()) ~child:61;
  Alcotest.(check (option int)) "left keys" (Some 60) (Tsb.find t ~key:"apple" ~ts:(ts 10));
  Alcotest.(check (option int)) "right keys" (Some 61) (Tsb.find t ~key:"zebra" ~ts:(ts 10));
  Alcotest.(check (option int)) "boundary key right" (Some 61)
    (Tsb.find t ~key:"m" ~ts:(ts 10))

(* Randomized: many disjoint rectangles (a time-partitioned history per
   key stripe, like real time splits produce) inserted in random order;
   every probe agrees with the naive list. *)
let prop_vs_naive =
  let gen = QCheck.Gen.(pair (int_range 2 6) (int_range 10 80)) in
  QCheck.Test.make ~name:"tsb vs naive rectangle list" ~count:40 (QCheck.make gen)
    (fun (stripes, slices) ->
      let t = standalone ~page_size:512 () in
      let stripe_key i = Printf.sprintf "s%02d" i in
      (* build disjoint rects: stripe i covers [s i, s i+1) x [j*10, j*10+10) *)
      let rects = ref [] in
      for i = 0 to stripes - 1 do
        for j = 0 to slices - 1 do
          let r =
            {
              Tsb.key_low = stripe_key i;
              key_high = (if i = stripes - 1 then None else Some (stripe_key (i + 1)));
              t_low = ts (j * 10);
              t_high = ts ((j * 10) + 10);
            }
          in
          rects := (r, (i * 1000) + j + 100) :: !rects
        done
      done;
      (* shuffle deterministically *)
      let arr = Array.of_list !rects in
      Imdb_util.Rng.shuffle (Imdb_util.Rng.create (stripes + slices)) arr;
      Array.iter (fun (r, child) -> Tsb.insert t ~rect:r ~child) arr;
      let leaf_entries = Tsb.check_invariants t in
      (* probe every cell center + some misses *)
      let ok = ref true in
      for i = 0 to stripes - 1 do
        for j = 0 to slices - 1 do
          let key = stripe_key i ^ "x" and probe = ts ((j * 10) + 5) in
          let expect = Some ((i * 1000) + j + 100) in
          let got = Tsb.find t ~key ~ts:probe in
          if got <> expect then begin
            ok := false;
            QCheck.Test.fail_reportf "probe stripe %d slice %d: got %s" i j
              (match got with Some p -> string_of_int p | None -> "none")
          end
        done
      done;
      (* probe outside any rectangle *)
      if Tsb.find t ~key:"s00" ~ts:(ts (slices * 10 + 5)) <> None then
        QCheck.Test.fail_reportf "hit beyond the last slice";
      !ok && leaf_entries >= stripes * slices)

let test_many_inserts_depth () =
  (* enough entries to force multiple node splits, including root splits *)
  let t = standalone ~page_size:512 () in
  for j = 0 to 299 do
    Tsb.insert t ~rect:(rect ~t0:(j * 10) ~t1:((j * 10) + 10) ()) ~child:(1000 + j)
  done;
  ignore (Tsb.check_invariants t);
  for j = 0 to 299 do
    Alcotest.(check (option int))
      (Printf.sprintf "slice %d" j)
      (Some (1000 + j))
      (Tsb.find t ~key:"anything" ~ts:(ts ((j * 10) + 3)))
  done

(* --- time-split histories: straddling rectangles and boundary probes ---- *)

(* Every string over {a, b, c} of length 1 to 3, sorted: a key bound here
   has prefixes that are themselves keys, and "" lies below them all. *)
let key_universe =
  let rec strs n =
    if n = 0 then [ "" ]
    else List.concat_map (fun s -> [ s ^ "a"; s ^ "b"; s ^ "c" ]) (strs (n - 1))
  in
  List.concat_map strs [ 1; 2; 3 ] |> List.sort_uniq String.compare |> Array.of_list

(* The rectangles a table's data-page splits register, in the order they
   register them.  Current pages partition the key space; each step
   advances the clock by one quantum and either key-splits a page (both
   halves keep its split time) or time-splits it, registering
   [its keys) x [its split time, now).  Half the picks are skewed
   towards the low end of the list, so pages near the high end go many
   steps unsplit and register long-lived rectangles: these straddle the
   index's own split lines and force redundant posting. *)
let history_rects rng ~steps =
  let pages = ref [| ("", None, 0) |] in
  let rects = ref [] and child = ref 100 in
  for step = 1 to steps do
    let now = step * 20 in
    let n = Array.length !pages in
    let i =
      if Imdb_util.Rng.bool rng then Imdb_util.Rng.int rng n
      else Imdb_util.Rng.int rng (1 + Imdb_util.Rng.int rng n)
    in
    let klo, khi, st = !pages.(i) in
    let seps =
      Array.to_list key_universe
      |> List.filter (fun k ->
             String.compare k klo > 0
             && match khi with None -> true | Some h -> String.compare k h < 0)
    in
    if seps <> [] && Imdb_util.Rng.int rng 4 = 0 then begin
      let sep = List.nth seps (Imdb_util.Rng.int rng (List.length seps)) in
      let before = Array.sub !pages 0 i and after = Array.sub !pages (i + 1) (n - i - 1) in
      pages := Array.concat [ before; [| (klo, Some sep, st); (sep, khi, st) |]; after ]
    end
    else begin
      let r = { Tsb.key_low = klo; key_high = khi; t_low = ts st; t_high = ts now } in
      rects := (r, !child) :: !rects;
      incr child;
      !pages.(i) <- (klo, khi, now)
    end
  done;
  List.rev !rects

let contains (r : Tsb.rect) ~key ~ts:t =
  String.compare key r.key_low >= 0
  && (match r.key_high with None -> true | Some h -> String.compare key h < 0)
  && Ts.compare t r.t_low >= 0
  && Ts.compare t r.t_high < 0

(* Probe keys around a rectangle's key bounds: each bound, the bound with
   its last byte dropped (a prefix, which sorts below it), the bound with
   a byte appended (just above it), and the empty key.  Probe times: each
   time bound and the instants just below and just above it. *)
let probes (r : Tsb.rect) =
  let around k =
    let n = String.length k in
    [ k; k ^ "\000" ] @ if n > 0 then [ String.sub k 0 (n - 1) ] else []
  in
  let keys = ("" :: around r.key_low) @ Option.fold r.key_high ~none:[] ~some:around in
  let around_t (t : Ts.t) =
    let ms = Ts.ttime t in
    [ t; Ts.make ~ttime:ms ~sn:1 ]
    @ if Int64.compare ms 0L > 0 then [ Ts.make ~ttime:(Int64.pred ms) ~sn:0xFFFFFFFF ] else []
  in
  let times = around_t r.t_low @ around_t r.t_high in
  List.concat_map (fun k -> List.map (fun t -> (k, t)) times) keys

let prop_history_vs_naive =
  let gen = QCheck.Gen.(triple (int_bound 1_000_000) (int_range 60 300) bool) in
  QCheck.Test.make ~name:"tsb vs naive: time-split histories, boundary probes"
    ~count:20
    (QCheck.make ~print:QCheck.Print.(triple int int bool) gen)
    (fun (seed, steps, shuffled) ->
      let t = standalone ~page_size:512 () in
      let rects = Array.of_list (history_rects (Imdb_util.Rng.create seed) ~steps) in
      if shuffled then Imdb_util.Rng.shuffle (Imdb_util.Rng.create (seed + 1)) rects;
      Array.iter (fun (r, child) -> Tsb.insert t ~rect:r ~child) rects;
      let leaf_entries = Tsb.check_invariants t in
      let naive ~key ~ts =
        Array.fold_left
          (fun acc (r, c) -> if acc = None && contains r ~key ~ts then Some c else acc)
          None rects
      in
      Array.iter
        (fun ((r : Tsb.rect), _) ->
          List.iter
            (fun (key, probe) ->
              let expect = naive ~key ~ts:probe and got = Tsb.find t ~key ~ts:probe in
              if got <> expect then
                QCheck.Test.fail_reportf "probe (%S, %a) near [%S,%s) x [%a,%a): got %s, want %s"
                  key Ts.pp probe r.key_low
                  (Option.value r.key_high ~default:"+inf")
                  Ts.pp r.t_low Ts.pp r.t_high
                  (match got with Some p -> string_of_int p | None -> "none")
                  (match expect with Some p -> string_of_int p | None -> "none"))
            (probes r))
        rects;
      leaf_entries >= Array.length rects)

(* Index pages are a function of the inserted rectangles alone.  A
   seeded build of 966 time-split rectangles on 512-byte pages posts
   23154 leaf cells (redundant copies included) into 3772 index pages
   five levels deep, and yields this CRC over every index page (from the
   LSN on) and this log length.  It pins the page images, the split
   decisions and the log records. *)
let test_golden_images () =
  let t, pool, wal, next = standalone_parts ~page_size:512 () in
  let rects = history_rects (Imdb_util.Rng.create 2006) ~steps:1000 in
  List.iter (fun (r, child) -> Tsb.insert t ~rect:r ~child) rects;
  let all = Buffer.create (512 * !next) in
  for pid = 1 to !next - 1 do
    BP.with_page pool pid (fun fr ->
        let b = BP.bytes fr in
        Buffer.add_subbytes all b 8 (Bytes.length b - 8))
  done;
  let crc = Imdb_util.Checksum.bytes_int (Buffer.to_bytes all) in
  let depth = BP.with_page pool (Tsb.root t) (fun fr -> P.level (BP.bytes fr)) in
  Alcotest.(check int) "root level (five levels deep)" 4 depth;
  Alcotest.(check string) "index page CRC" "4b45a526" (Printf.sprintf "%08x" crc);
  Alcotest.(check int64) "log length" 5336810L (Wal.next_lsn wal)

let suite =
  [
    Alcotest.test_case "basic find" `Quick test_basic_find;
    Alcotest.test_case "key partitioned" `Quick test_key_partitioned;
    QCheck_alcotest.to_alcotest prop_vs_naive;
    Alcotest.test_case "many inserts (splits)" `Quick test_many_inserts_depth;
    QCheck_alcotest.to_alcotest prop_history_vs_naive;
    Alcotest.test_case "golden index images" `Quick test_golden_images;
  ]
