(* CRC-32 (IEEE 802.3 polynomial, reflected).  Used to validate page images
   and log-record frames; a mismatch signals a torn or corrupt write.

   Slicing-by-8: eight 256-entry tables, where table k maps a byte to the
   CRC contribution of that byte followed by k zero bytes, fold eight
   input bytes into the state per step (two little-endian 32-bit loads);
   the last [len mod 8] bytes take the classic one-table step.  The state
   is kept in an unboxed [int] (the CRC fits in 32 bits) and the tables
   hold ints, so no step allocates — this runs over every page written or
   verified and every log frame appended or read. *)

let poly = 0xEDB88320

(* table k lives at [k * 256 .. k * 256 + 255] *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := poly lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* CRC over [b.(pos .. pos+len)], as an unsigned int. *)
let range b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Checksum.range";
  let t = tables in
  let tab k i = Array.unsafe_get t ((k lsl 8) lor (i land 0xff)) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let wide_end = pos + (len land lnot 7) in
  while !i < wide_end do
    let lo = Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    let x = !c lxor lo in
    c :=
      tab 7 x
      lxor tab 6 (x lsr 8)
      lxor tab 5 (x lsr 16)
      lxor tab 4 (x lsr 24)
      lxor tab 3 hi
      lxor tab 2 (hi lsr 8)
      lxor tab 1 (hi lsr 16)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = wide_end to pos + len - 1 do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get b j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes_int b = range b ~pos:0 ~len:(Bytes.length b)
let bytes b = Int32.of_int (bytes_int b)
