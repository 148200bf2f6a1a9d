(* CRC-32 (IEEE 802.3 polynomial, reflected).  Used to validate page images
   and log-record frames; a mismatch signals a torn or corrupt write.

   The state is kept in an unboxed [int] (the CRC fits in 32 bits) and the
   table holds ints, so the per-byte step allocates nothing — this runs
   over every page written and every log record appended. *)

let table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

(* CRC over [b.(pos .. pos+len)], as an unsigned int. *)
let bytes_int ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.bytes_int";
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?pos ?len b = Int32.of_int (bytes_int ?pos ?len b)
