(* imdb_util: codecs, checksums, PRNG. *)

module Codec = Imdb_util.Codec
module Checksum = Imdb_util.Checksum
module Rng = Imdb_util.Rng

let test_codec_scalars () =
  let b = Bytes.make 64 '\000' in
  Codec.set_u8 b 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 b 0);
  Codec.set_u16 b 1 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 1);
  Codec.set_u32 b 3 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 b 3);
  Codec.set_i64 b 7 (-42L);
  Alcotest.(check int64) "i64" (-42L) (Codec.get_i64 b 7);
  Codec.set_string b 23 "hello";
  Alcotest.(check string) "string" "hello" (Codec.get_string b 23 5)

let test_codec_bounds () =
  let b = Bytes.make 4 '\000' in
  Alcotest.check_raises "read past end"
    (Codec.Out_of_bounds "get_u32: pos=1 len=4 buffer=4")
    (fun () -> ignore (Codec.get_u32 b 1));
  Alcotest.check_raises "negative pos"
    (Codec.Out_of_bounds "get_u8: pos=-1 len=1 buffer=4")
    (fun () -> ignore (Codec.get_u8 b (-1)))

let test_writer_reader_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 7;
  Codec.Writer.u16 w 65535;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.i64 w (-987654321L);
  Codec.Writer.lstring w "key";
  Codec.Writer.lbytes w (Bytes.of_string "value");
  Codec.Writer.lbytes32 w (Bytes.make 300 'x');
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 7 (Codec.Reader.u8 r);
  Alcotest.(check int) "u16" 65535 (Codec.Reader.u16 r);
  Alcotest.(check int) "u32" 123456789 (Codec.Reader.u32 r);
  Alcotest.(check int64) "i64" (-987654321L) (Codec.Reader.i64 r);
  Alcotest.(check string) "lstring" "key" (Codec.Reader.lstring r);
  Alcotest.(check string) "lbytes" "value" (Bytes.to_string (Codec.Reader.lbytes r));
  Alcotest.(check int) "lbytes32" 300 (Bytes.length (Codec.Reader.lbytes32 r));
  Alcotest.(check bool) "eof" true (Codec.Reader.eof r)

let prop_writer_reader =
  QCheck.Test.make ~name:"writer/reader roundtrip" ~count:200
    QCheck.(list (pair small_string (int_bound 0xffff)))
    (fun entries ->
      let w = Codec.Writer.create () in
      List.iter
        (fun (s, n) ->
          Codec.Writer.lstring w s;
          Codec.Writer.u16 w n)
        entries;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      List.for_all
        (fun (s, n) -> Codec.Reader.lstring r = s && Codec.Reader.u16 r = n)
        entries)

let test_crc_vectors () =
  (* standard check value for "123456789" *)
  Alcotest.(check int) "crc32 check vector" 0xCBF43926
    (Checksum.bytes_int (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Checksum.bytes_int Bytes.empty);
  (* sensitivity: flipping any byte changes the checksum *)
  let b = Bytes.of_string "The quick brown fox" in
  let c = Checksum.bytes_int b in
  Bytes.set b 4 'Q';
  Alcotest.(check bool) "bit flip detected" true (c <> Checksum.bytes_int b)

let test_crc_range () =
  let b = Bytes.of_string "xxxHELLOxxx" in
  Alcotest.(check int) "sub-range crc"
    (Checksum.bytes_int (Bytes.of_string "HELLO"))
    (Checksum.range b ~pos:3 ~len:5)

(* The textbook one-table, byte-at-a-time CRC-32: the reference the
   sliced implementation must match bit for bit. *)
let crc_bytewise b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_matches_bytewise () =
  let rng = Rng.create 11 in
  let b = Bytes.init 200 (fun _ -> Char.chr (Rng.int rng 256)) in
  for pos = 0 to 64 do
    for len = 0 to 64 do
      let want = crc_bytewise b ~pos ~len in
      let got = Checksum.range b ~pos ~len in
      if got <> want then Alcotest.failf "pos %d len %d: %08x <> %08x" pos len got want
    done
  done;
  let page = Bytes.init 8192 (fun _ -> Char.chr (Rng.int rng 256)) in
  Alcotest.(check int) "full page" (crc_bytewise page ~pos:0 ~len:8192)
    (Checksum.bytes_int page);
  Alcotest.(check int) "page body, as Page.seal covers it"
    (crc_bytewise page ~pos:8 ~len:8184)
    (Checksum.range page ~pos:8 ~len:8184)

let test_rng_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 10000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f;
    let x = Rng.int_in r (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "int_in out of bounds: %d" x
  done

let test_rng_shuffle_choose () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "shuffle is a permutation" true (sorted = Array.init 50 Fun.id);
  let v = Rng.choose r [| 42 |] in
  Alcotest.(check int) "choose singleton" 42 v

let suite =
  [
    Alcotest.test_case "codec scalars" `Quick test_codec_scalars;
    Alcotest.test_case "codec bounds" `Quick test_codec_bounds;
    Alcotest.test_case "writer/reader" `Quick test_writer_reader_roundtrip;
    QCheck_alcotest.to_alcotest prop_writer_reader;
    Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc range" `Quick test_crc_range;
    Alcotest.test_case "crc matches bytewise reference" `Quick test_crc_matches_bytewise;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng shuffle/choose" `Quick test_rng_shuffle_choose;
  ]
