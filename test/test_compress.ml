(* Delta-compressed history pages.

   The codec must round-trip every history page the engine stores
   (chains with delete stubs, single-version chains, redundant split
   copies); compressed history must answer exactly what the applied
   operations say — AS OF scans and histories against a model — with
   the same [asof.*] work whether the history memo is cold or warm; the
   history footprint must be what the compression counters account for;
   the codec must be total on every image a time split builds, across
   page sizes, key and payload lengths and the timestamp domain; decode
   must reject a corrupt blob with [Codec.Out_of_bounds] and allocate
   one page whatever the page's version count; a plain [P_history] page
   on stable storage is no history page and must fail the read; and
   crash recovery must rebuild compressed pages from their trimmed log
   images. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module P = Imdb_storage.Page
module Vc = Imdb_storage.Vcompress
module BP = Imdb_buffer.Buffer_pool
module V = Imdb_version.Vpage
module Tid = Imdb_clock.Tid
module Codec = Imdb_util.Codec
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
            let c = Vc.encode plain in
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
      if M.get (Db.metrics db) M.time_splits = 0 then
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
  Alcotest.(check bool) "time splits stored history" true (g M.time_splits > 0);
  Alcotest.(check int) "raw bytes are one whole plain page per split"
    (g M.time_splits * page) (g M.compress_raw_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "history bytes shrink (%d raw -> %d written)"
       (g M.compress_raw_bytes) (g M.hist_bytes_written))
    true
    (g M.hist_bytes_written < g M.compress_raw_bytes);
  Alcotest.(check int) "the ratio gauge is written over raw"
    (g M.hist_bytes_written * 100 / g M.compress_raw_bytes)
    (M.gauge m M.compress_ratio)

(* --- the codec is total on time-split output -------------------------- *)

(* A [size]-byte data page filled to capacity ([Page.insert_slot]) with
   versions of [klen]-byte keys and [plen]-byte payloads — one chain per
   key over three keys when [chained], else one version per key; every
   fourth version a delete stub when [stubs] — stamped from [ttime] on
   at SN [sn], then time-split after its last commit.  Returns the
   history image the engine would hand the codec, or [None] when not
   even one version fits. *)
let split_history ~size ~klen ~plen ~chained ~stubs ~ttime ~sn =
  let page = Bytes.make size '\000' in
  P.format page ~page_id:5 ~page_type:P.P_data ();
  let heads = Hashtbl.create 8 in
  let rec fill n =
    let id = if chained then n mod 3 else n in
    let key = Printf.sprintf "%0*d" klen id in
    let key = String.sub key (String.length key - klen) klen in
    let stub = stubs && n mod 4 = 3 in
    (* consecutive versions differ at both ends: no shared prefix or
       suffix, the costliest member diff *)
    let payload =
      if stub then "" else String.init plen (fun j -> Char.chr (97 + ((j + n) mod 26)))
    in
    match
      V.plan_insert_with_pred page ~pred:(Hashtbl.find_opt heads key) ~key ~payload
        ~tid:(Tid.of_int (n + 1)) ~delete_stub:stub
    with
    | None -> n
    | Some pi ->
        V.apply_insert page pi;
        Hashtbl.replace heads key pi.V.pi_slot;
        fill (n + 1)
  in
  let n = fill 0 in
  ignore
    (V.stamp page
       ~resolve:(fun tid ->
         V.Committed (Ts.make ~ttime:(Int64.add ttime (Tid.to_int64 tid)) ~sn))
       ~on_stamp:(fun _ _ -> ()));
  if n = 0 then None
  else
    let split_time = Ts.make ~ttime:(Int64.add ttime (Int64.of_int (n + 2))) ~sn:0 in
    Some (V.time_split ~page ~split_time ~history_page_id:6 ()).V.si_history

(* [decode (encode h) = h] on every image of a sweep over page sizes,
   key lengths (either side of the one-byte varint limit), payload sizes
   (a coarse step, then every size near the largest that fits), chains,
   stubs and the edge of the timestamp domain the codec is total on. *)
let test_total_on_split_output () =
  let images = ref 0 in
  let check ~size ~klen ~plen ~ttime ~sn =
    List.iter
      (fun (chained, stubs) ->
        match split_history ~size ~klen ~plen ~chained ~stubs ~ttime ~sn with
        | None -> ()
        | Some h ->
            incr images;
            let c =
              try Vc.encode h
              with Invalid_argument e ->
                Alcotest.failf "encode raised (%s): page %d, key %d, payload %d" e size
                  klen plen
            in
            let full = Bytes.make size '\000' in
            Bytes.blit c 0 full 0 (Bytes.length c);
            if not (Bytes.equal (Vc.decode full) h) then
              Alcotest.failf "decode (encode h) <> h: page %d, key %d, payload %d" size
                klen plen)
      [ (false, false); (true, false); (true, true) ]
  in
  let now = 1_800_000_000_000L in
  let edge = Int64.sub (Int64.shift_left 1L 48) 1_000_000L in
  List.iter
    (fun size ->
      List.iter
        (fun klen ->
          let largest = size - P.header_size - 23 - klen in
          let coarse = List.init ((largest / 97) + 1) (fun i -> i * 97) in
          let near_full = List.init 24 (fun i -> largest - i) in
          List.iter
            (fun plen ->
              if plen >= 0 then begin
                check ~size ~klen ~plen ~ttime:now ~sn:2_000_000;
                check ~size ~klen ~plen ~ttime:edge ~sn:((1 lsl 21) - 1)
              end)
            (coarse @ near_full))
        [ 1; 127; 128; 200 ])
    [ 512; 1024; 4096; 16384 ];
  (* the 1 KiB page with 100-450 B payloads, every size *)
  for plen = 100 to 450 do
    check ~size:1024 ~klen:8 ~plen ~ttime:now ~sn:0
  done;
  Alcotest.(check bool) (Printf.sprintf "%d images swept" !images) true (!images > 1000)

(* Anything but a time split's output breaks the codec's invariant: a
   history image with a dead slot, or a data page. *)
let test_encode_rejects_other_images () =
  let h =
    Option.get
      (split_history ~size:1024 ~klen:4 ~plen:40 ~chained:true ~stubs:false
         ~ttime:1_800_000_000_000L ~sn:0)
  in
  let raises b = match Vc.encode b with _ -> false | exception Invalid_argument _ -> true in
  let holed = Bytes.copy h in
  P.delete_slot holed 0;
  Alcotest.(check bool) "image with garbage" true (raises holed);
  let data = Bytes.copy h in
  P.set_page_type data P.P_data;
  Alcotest.(check bool) "not a history page" true (raises data)

(* --- decoding a corrupt blob --------------------------------------------- *)

(* Offsets of the varints a corruption inflates in [b]'s blob: every
   run length, head key and payload length, and member prefix, suffix
   and middle length.  Walks the block format of vcompress.ml. *)
let blob_fields b =
  let pos = ref (Vc.encoded_size b - Codec.get_u16 b (P.header_size + 2)) in
  let fields = ref [] in
  let varint ~field =
    let at = !pos and v = ref 0 and shift = ref 0 in
    while Bytes.get_uint8 b !pos land 0x80 <> 0 do
      v := !v lor ((Bytes.get_uint8 b !pos land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr pos
    done;
    v := !v lor (Bytes.get_uint8 b !pos lsl !shift);
    incr pos;
    if field then fields := at :: !fields;
    !v
  in
  let skip n = pos := !pos + n in
  let rec runs left =
    if left > 0 then begin
      let len = varint ~field:true in
      skip 1;
      ignore (varint ~field:false);
      ignore (varint ~field:false);
      skip (varint ~field:true);
      skip (varint ~field:true);
      for _ = 2 to len do
        skip 1;
        ignore (varint ~field:false);
        ignore (varint ~field:false);
        ignore (varint ~field:true);
        ignore (varint ~field:true);
        skip (varint ~field:true)
      done;
      ignore (varint ~field:false);
      runs (left - len)
    end
  in
  runs (Codec.get_u16 b P.header_size);
  !fields

(* The largest value of the varint at [at] that keeps its width. *)
let inflate b at =
  let b = Bytes.copy b in
  let rec go i =
    if Bytes.get_uint8 b i land 0x80 <> 0 then begin
      Bytes.set_uint8 b i 0xff;
      go (i + 1)
    end
    else Bytes.set_uint8 b i 0x7f
  in
  go at;
  b

(* A decoded frame is a well-formed page: every cell between the header
   and [free_lower], which stays below the slot array. *)
let well_formed img =
  let n = P.slot_count img and fl = P.free_lower img in
  P.header_size <= fl
  && fl <= Bytes.length img - (2 * n)
  && List.for_all
       (fun slot ->
         let off = P.slot_offset img slot in
         off >= P.header_size && off + 2 + P.cell_length img slot <= fl)
       (List.init n Fun.id)

(* Blobs cut short, with random bytes flipped or with an inflated run,
   key, payload or diff length, and frames cut short of the page they
   were encoded from: [decode] returns a well-formed frame-size page or
   raises [Codec.Out_of_bounds], never a stray exception from a blit. *)
let test_decode_rejects_corrupt () =
  let db, clock = fresh () in
  ignore (churn db clock ~keys:12 ~rounds:10);
  flush db;
  let stored = List.filter Vc.is_compressed (List.map snd (stored_pages db)) in
  Db.close db;
  Alcotest.(check bool) "workload stored compressed pages" true (stored <> []);
  let rng = Random.State.make [| 23 |] in
  let decoded = ref 0 and rejected = ref 0 and short_rejected = ref 0 in
  let try_decode ?(short = false) what b =
    match Vc.decode b with
    | img ->
        incr decoded;
        if Bytes.length img <> Bytes.length b || not (well_formed img) then
          Alcotest.failf "%s: decode returned a malformed page" what
    | exception Codec.Out_of_bounds _ ->
        incr rejected;
        if short then incr short_rejected
    | exception e -> Alcotest.failf "%s: decode raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun page ->
      let blen = Codec.get_u16 page (P.header_size + 2) in
      let blob = Vc.encoded_size page - blen in
      for cut = 0 to blen - 1 do
        let b = Bytes.copy page in
        Codec.set_u16 b (P.header_size + 2) cut;
        try_decode (Printf.sprintf "blob_len %d of %d" cut blen) b
      done;
      for _ = 1 to 40 do
        let b = Bytes.copy page in
        for _ = 0 to Random.State.int rng 3 do
          Bytes.set_uint8 b (blob + Random.State.int rng blen) (Random.State.int rng 256)
        done;
        try_decode "flipped blob bytes" b
      done;
      List.iter
        (fun at -> try_decode (Printf.sprintf "varint at %d inflated" at) (inflate page at))
        (blob_fields page);
      for frame = Vc.encoded_size page to Bytes.length page - 1 do
        try_decode ~short:true
          (Printf.sprintf "frame of %d bytes" frame)
          (Bytes.sub page 0 frame)
      done)
    stored;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (%d decoded, %d rejected, %d short frames)"
       !decoded !rejected !short_rejected)
    true
    (!decoded > 0 && !rejected > 0 && !short_rejected > 0)

(* --- decoding allocates the page, not per version ---------------------- *)

let test_decode_allocation () =
  let size = 8192 in
  let bytes_of_decode ~plen =
    let h =
      Option.get
        (split_history ~size ~klen:4 ~plen ~chained:true ~stubs:false
           ~ttime:1_800_000_000_000L ~sn:0)
    in
    let c = Vc.encode h in
    let full = Bytes.make size '\000' in
    Bytes.blit c 0 full 0 (Bytes.length c);
    ignore (Vc.decode full);
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Vc.decode full));
    (P.slot_count h, Gc.allocated_bytes () -. before)
  in
  let few, few_bytes = bytes_of_decode ~plen:2000 in
  let many, many_bytes = bytes_of_decode ~plen:30 in
  Alcotest.(check bool) (Printf.sprintf "%d and %d versions" few many) true
    (few <= 4 && many >= 140);
  let bound = float_of_int (2 * size) in
  List.iter
    (fun (n, b) ->
      if b > bound then
        Alcotest.failf "decoding %d versions allocated %.0f bytes (bound %.0f)" n b bound)
    [ (few, few_bytes); (many, many_bytes) ]

(* --- a plain history page on stable storage ---------------------------- *)

(* Every history page is stored compressed, so a plain [P_history] image
   on disk is not history the engine wrote.  Put one there by hand — each
   compressed history page replaced by its decoded, resealed image, at
   the same LSN so recovery leaves it alone — and a read that reaches it
   must fail with an error instead of answering from it. *)
let test_plain_page_fails_read () =
  let db, clock = fresh () in
  let tss = churn db clock ~keys:10 ~rounds:8 in
  flush db;
  let plain =
    List.filter_map
      (fun (pid, stored) ->
        if Vc.is_compressed stored then Some (pid, Vc.decode stored) else None)
      (stored_pages db)
  in
  Alcotest.(check bool) "history pages were compressed" true (plain <> []);
  let disk = (Db.engine db).E.disk in
  List.iter
    (fun (pid, img) ->
      P.seal img;
      disk.Imdb_storage.Disk.write_page pid img)
    plain;
  let db = Db.crash_and_reopen ~config ~clock db in
  let fails what read =
    match read () with
    | _ -> Alcotest.failf "%s answered from a plain history page" what
    | exception Invalid_argument _ -> ()
  in
  fails "AS OF scan" (fun () -> collect db (List.hd tss));
  fails "history walk" (fun () -> hist db (k 3));
  (* the current state never needs a history page *)
  let current = ref 0 in
  Db.exec db (fun txn -> Db.scan db txn ~table:"t" (fun _ _ -> incr current));
  Alcotest.(check int) "a current scan still answers" 10 !current;
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
    (M.get (Db.metrics db) M.time_splits > 0);
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
    Alcotest.test_case "codec is total on time-split output" `Quick
      test_total_on_split_output;
    Alcotest.test_case "codec rejects other images" `Quick
      test_encode_rejects_other_images;
    Alcotest.test_case "decode rejects corrupt blobs" `Quick test_decode_rejects_corrupt;
    Alcotest.test_case "decode allocates per page, not per version" `Quick
      test_decode_allocation;
    Alcotest.test_case "plain history page on disk fails the read" `Quick
      test_plain_page_fails_read;
    Alcotest.test_case "recovery rebuilds compressed history" `Quick
      test_recovery_compressed;
  ]
