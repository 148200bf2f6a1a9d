(* TSB-tree: rectangle search, node splits, and equivalence with a naive
   rectangle list under randomized insertion. *)

module Disk = Imdb_storage.Disk
module P = Imdb_storage.Page
module BP = Imdb_buffer.Buffer_pool
module Wal = Imdb_wal.Wal
module LR = Imdb_wal.Log_record
module Tsb = Imdb_tsb.Tsb
module Ts = Imdb_clock.Timestamp

let standalone ?(page_size = 512) () =
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
  Tsb.create ~pool ~io ~table_id:1

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

let suite =
  [
    Alcotest.test_case "basic find" `Quick test_basic_find;
    Alcotest.test_case "key partitioned" `Quick test_key_partitioned;
    QCheck_alcotest.to_alcotest prop_vs_naive;
    Alcotest.test_case "many inserts (splits)" `Quick test_many_inserts_depth;
  ]
