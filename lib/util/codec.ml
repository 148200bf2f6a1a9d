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

  let length t = Buffer.length t
  let clear t = Buffer.clear t
  let blit t dst pos = Buffer.blit t 0 dst pos (Buffer.length t)
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

  let lstring t =
    let n = u16 t in
    Bytes.to_string (bytes t n)

  let lbytes t =
    let n = u16 t in
    bytes t n

  let lbytes32 t =
    let n = u32 t in
    bytes t n
end
