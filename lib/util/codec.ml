(* Binary encoding helpers over [bytes].

   All multi-byte integers are little-endian, matching the on-disk format
   of pages, records and log frames throughout the engine.  Every accessor
   bounds-checks and raises [Out_of_bounds] with a descriptive context so
   that a corrupt page surfaces as a diagnosable error rather than a
   segfault-style exception from the runtime. *)

exception Out_of_bounds of string

let check b ~pos ~len ~what =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    raise
      (Out_of_bounds
         (Printf.sprintf "%s: pos=%d len=%d buffer=%d" what pos len
            (Bytes.length b)))

let get_u8 b pos =
  check b ~pos ~len:1 ~what:"get_u8";
  Char.code (Bytes.get b pos)

let set_u8 b pos v =
  check b ~pos ~len:1 ~what:"set_u8";
  Bytes.set b pos (Char.chr (v land 0xff))

let get_u16 b pos =
  check b ~pos ~len:2 ~what:"get_u16";
  Bytes.get_uint16_le b pos

let set_u16 b pos v =
  check b ~pos ~len:2 ~what:"set_u16";
  Bytes.set_uint16_le b pos (v land 0xffff)

let get_u32 b pos =
  check b ~pos ~len:4 ~what:"get_u32";
  Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff

let set_u32 b pos v =
  check b ~pos ~len:4 ~what:"set_u32";
  Bytes.set_int32_le b pos (Int32.of_int (v land 0xffffffff))

let get_i64 b pos =
  check b ~pos ~len:8 ~what:"get_i64";
  Bytes.get_int64_le b pos

let set_i64 b pos v =
  check b ~pos ~len:8 ~what:"set_i64";
  Bytes.set_int64_le b pos v

(* [int] stored in 8 bytes; safe on 64-bit platforms for all OCaml ints. *)
let get_int b pos = Int64.to_int (get_i64 b pos)
let set_int b pos v = set_i64 b pos (Int64.of_int v)

let get_bytes b pos len =
  check b ~pos ~len ~what:"get_bytes";
  Bytes.sub b pos len

let set_bytes b pos src =
  check b ~pos ~len:(Bytes.length src) ~what:"set_bytes";
  Bytes.blit src 0 b pos (Bytes.length src)

let get_string b pos len = Bytes.to_string (get_bytes b pos len)

let set_string b pos s =
  check b ~pos ~len:(String.length s) ~what:"set_string";
  Bytes.blit_string s 0 b pos (String.length s)

(* Length-prefixed strings: u16 length followed by the bytes.  Returns the
   value and the position just past it, in the style of a cursor. *)

let write_lstring b pos s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Codec.write_lstring: string too long";
  set_u16 b pos n;
  set_string b (pos + 2) s;
  pos + 2 + n

let read_lstring b pos =
  let n = get_u16 b pos in
  (get_string b (pos + 2) n, pos + 2 + n)

(* A growable output buffer for encoding variable-size structures (log
   records, catalog rows).  Thin wrapper over [Buffer] with the same
   little-endian conventions. *)
module Writer = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))
  let u16 t v = Buffer.add_uint16_le t v
  let u32 t v = Buffer.add_int32_le t (Int32.of_int (v land 0xffffffff))
  let i64 t v = Buffer.add_int64_le t v
  let int t v = i64 t (Int64.of_int v)
  let bytes t b = Buffer.add_bytes t b
  let string t s = Buffer.add_string t s

  let lstring t s =
    if String.length s > 0xffff then invalid_arg "Codec.Writer.lstring";
    u16 t (String.length s);
    string t s

  let lbytes t b =
    if Bytes.length b > 0xffff then invalid_arg "Codec.Writer.lbytes";
    u16 t (Bytes.length b);
    bytes t b

  (* 32-bit length prefix, for payloads such as full page images. *)
  let lbytes32 t b =
    u32 t (Bytes.length b);
    bytes t b

  (* Unsigned LEB128: 7 value bits per byte, high bit = continuation.
     [varint64] treats its argument as an unsigned 64-bit word (so a
     negative [int64] costs the full 10 bytes but round-trips exactly);
     [varint] covers non-negative OCaml ints such as lengths and slots. *)
  let varint64 t v =
    let v = ref v in
    let continue_ = ref true in
    while !continue_ do
      let low = Int64.to_int (Int64.logand !v 0x7fL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        u8 t low;
        continue_ := false
      end
      else u8 t (low lor 0x80)
    done

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    varint64 t (Int64.of_int v)

  let contents t = Buffer.to_bytes t
end

(* A cursor for decoding; mirrors [Writer]. *)
module Reader = struct
  type t = { buf : bytes; mutable pos : int }

  let create ?(pos = 0) buf = { buf; pos }
  let remaining t = Bytes.length t.buf - t.pos
  let eof t = remaining t <= 0

  let u8 t =
    let v = get_u8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let v = get_u16 t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    let v = get_u32 t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    let v = get_i64 t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let int t = Int64.to_int (i64 t)

  let bytes t n =
    let v = get_bytes t.buf t.pos n in
    t.pos <- t.pos + n;
    v

  let string t n = Bytes.to_string (bytes t n)

  let lstring t =
    let n = u16 t in
    string t n

  let lbytes t =
    let n = u16 t in
    bytes t n

  let lbytes32 t =
    let n = u32 t in
    bytes t n

  let varint64 t =
    let v = ref 0L in
    let shift = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      if !shift > 63 then raise (Out_of_bounds "Reader.varint64: overlong");
      let byte = u8 t in
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7f)) !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue_ := false
    done;
    !v

  let varint t =
    let v = varint64 t in
    if Int64.compare v (Int64.of_int max_int) > 0 || Int64.compare v 0L < 0 then
      raise (Out_of_bounds "Reader.varint: out of int range");
    Int64.to_int v
end
