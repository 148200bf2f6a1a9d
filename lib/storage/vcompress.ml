(* Delta compression of historical page images (PR 4).

   A time split emits a [P_history] image with a rigid shape: chains are
   laid out head-first in consecutive slots, cells sit back-to-back from
   [Page.header_size] in slot order (the image is built by sequential
   inserts into a fresh page), every version is stamped, and within a
   chain each member's VP names the next slot.  That regularity is what
   this codec exploits: a chain run is stored as one full head record
   followed by per-version deltas — varint time/SN, a byte-range diff of
   the payload against its (newer) successor, flags, and an implicit VP.
   Only the last member of a run carries an explicit VP, because it may
   point outside the run (or into the older history page, flagged with
   [f_vp_in_history]).

   Compressed image layout:

   {v
      0..55  page header, copied from the plain image, with
             page_type := P_history_compressed, slot_count := 0
             (so stamping sweeps and slot iteration no-op),
             free_lower := end of blob, garbage := 0
     56  u16 n_versions   cells encoded
     58  u16 blob_len
     60  ... blob: chain blocks
   v}

   Block format (all varints unsigned LEB128):

   {v
     varint  run length L
     head:   u8 flags | varint64 raw ttime | varint sn
             | varint klen | key | varint plen | payload
     member (x L-1, each vs its predecessor):
             u8 flags | varint64 ttime delta (newer - older)
             | varint sn | varint prefix | varint suffix
             | varint midlen | mid bytes
     varint  VP spec for the last member: 0 = no_vp, else vp + 1
   v}

   Both directions work by offset on the page images, with no
   per-version record or string.  [decode] is an exact inverse: it
   writes slot i's cell at a running cursor from [Page.header_size],
   its slot entry pointing there, exactly where sequential insertion put
   it.  A member's key is copied from its run head's cell and its
   payload from its predecessor's cell plus the middle bytes of the
   blob; every VP but a run's last is the next slot, and the last is
   patched once the run's VP spec is read.  The output is the encoder's
   input image byte for byte (same offsets, same slot array, same
   header).  Every read stays inside the blob and every cell below the
   slot array, so a corrupt blob raises [Codec.Out_of_bounds].

   [encode] is total on time-split output.  Every field width is bounded
   by the page: with pages up to 16 KiB, key and payload lengths, run
   lengths, slot numbers and diff offsets are all below 2^14 (at most 2
   varint bytes), a Ttime below 2^48 ms takes at most 7 and an SN below
   2^21 at most 3.  A head then costs at most 19 bytes beyond its key and
   payload, run length and last-member VP included, and a member at most
   17 beyond its middle bytes, while a plain version costs 23 beyond its
   key and payload (slot entry, cell length, fixed fields, tail).  Every
   version therefore shrinks by at least 4 bytes, which pays for the
   4-byte count/length prefix, so the compressed image always fits the
   page.  An image outside that shape breaks an invariant of the split
   path and raises [Invalid_argument]. *)

open Imdb_util
module P = Page
module R = Record

let meta_size = 4 (* n_versions + blob_len *)
let blob_start = P.header_size + meta_size

(* Fields of the version whose cell body starts at [o] (Record layout). *)
let klen b o = Bytes.get_uint16_le b (o + 1)
let plen b o = Bytes.get_uint16_le b (o + 3)
let tail b o = o + 5 + klen b o + plen b o
let raw_ttime b o = Bytes.get_int64_le b (tail b o + 2)

(* What a time split builds: a history page whose cells sit exactly
   where the decoder's cursor will write them (or decoding could not
   reproduce the image byte for byte), every version stamped. *)
let split_output plain =
  let n = P.slot_count plain in
  let rec sequential slot cursor =
    if slot = n then P.free_lower plain = cursor
    else
      P.slot_offset plain slot = cursor
      && Int64.compare (raw_ttime plain (cursor + 2)) 0L >= 0 (* stamped *)
      && sequential (slot + 1) (cursor + 2 + Bytes.get_uint16_le plain cursor)
  in
  P.page_type plain = P.P_history && P.garbage plain = 0 && sequential 0 P.header_size

let rec same_bytes b i j len =
  len = 0 || (Bytes.get b i = Bytes.get b j && same_bytes b (i + 1) (j + 1) (len - 1))

(* Unsigned LEB128.  [varint64] is inlined so that its int64 never
   leaves registers. *)
let rec varint w v =
  if v < 0x80 then Buffer.add_uint8 w v
  else begin
    Buffer.add_uint8 w (v land 0x7f lor 0x80);
    varint w (v lsr 7)
  end

let[@inline] varint64 w v =
  let v = ref v and more = ref true in
  while !more do
    let low = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    more := not (Int64.equal !v 0L);
    Buffer.add_uint8 w (if !more then low lor 0x80 else low)
  done

let encode plain =
  if not (split_output plain) then
    invalid_arg "Vcompress.encode: not a time split's history image";
  let n = P.slot_count plain in
  let body slot = P.cell_body_offset plain slot in
  let w = Buffer.create (Bytes.length plain) in
  let s = ref 0 in
  while !s < n do
    (* maximal run of chain-linked, time-ordered cells *)
    let e = ref !s in
    let extending = ref true in
    while !extending && !e + 1 < n do
      let cur = body !e and nxt = body (!e + 1) in
      let k = klen plain cur in
      if
        Bytes.get_uint16_le plain (tail plain cur) = !e + 1
        && Bytes.get_uint8 plain cur land R.f_vp_in_history = 0
        && klen plain nxt = k
        && same_bytes plain (cur + 5) (nxt + 5) k
        && Int64.compare (raw_ttime plain cur) (raw_ttime plain nxt) >= 0
      then incr e
      else extending := false
    done;
    let head = body !s in
    let k = klen plain head and p = plen plain head in
    varint w (!e - !s + 1);
    Buffer.add_uint8 w (Bytes.get_uint8 plain head);
    varint64 w (raw_ttime plain head);
    varint w (Codec.get_u32 plain (tail plain head + 10));
    varint w k;
    Buffer.add_subbytes w plain (head + 5) k;
    varint w p;
    Buffer.add_subbytes w plain (head + 5 + k) p;
    for i = !s + 1 to !e do
      let prev = body (i - 1) and cur = body i in
      Buffer.add_uint8 w (Bytes.get_uint8 plain cur);
      varint64 w (Int64.sub (raw_ttime plain prev) (raw_ttime plain cur));
      varint w (Codec.get_u32 plain (tail plain cur + 10));
      let pp = prev + 5 + k and cp = cur + 5 + k in
      let lp = plen plain prev and lc = plen plain cur in
      let maxpre = min lp lc in
      let pre = ref 0 in
      while !pre < maxpre && Bytes.get plain (pp + !pre) = Bytes.get plain (cp + !pre) do
        incr pre
      done;
      let maxsuf = maxpre - !pre in
      let suf = ref 0 in
      while
        !suf < maxsuf
        && Bytes.get plain (pp + lp - 1 - !suf) = Bytes.get plain (cp + lc - 1 - !suf)
      do
        incr suf
      done;
      let midlen = lc - !pre - !suf in
      varint w !pre;
      varint w !suf;
      varint w midlen;
      Buffer.add_subbytes w plain (cp + !pre) midlen
    done;
    let vp = Bytes.get_uint16_le plain (tail plain (body !e)) in
    varint w (if vp = R.no_vp then 0 else vp + 1);
    s := !e + 1
  done;
  let blen = Buffer.length w in
  let total = blob_start + blen in
  if blen > 0xffff || total > Bytes.length plain then
    invalid_arg "Vcompress.encode: compressed image does not fit its page";
  let out = Bytes.create total in
  Bytes.blit plain 0 out 0 P.header_size;
  P.set_page_type out P.P_history_compressed;
  Codec.set_u16 out 18 0 (* slot_count *);
  Codec.set_u16 out 20 total (* free_lower *);
  Codec.set_u16 out 22 0 (* garbage *);
  Codec.set_u16 out P.header_size n;
  Codec.set_u16 out (P.header_size + 2) blen;
  Buffer.blit w 0 out blob_start blen;
  out

let is_compressed b = P.page_type b = P.P_history_compressed
let encoded_size b = blob_start + Codec.get_u16 b (P.header_size + 2)

(* --- decoding ----------------------------------------------------------- *)

let corrupt what = raise (Codec.Out_of_bounds ("Vcompress.decode: " ^ what))

(* A read cursor over the blob [src.(pos) .. src.(lim - 1)]. *)
type cursor = { src : bytes; mutable pos : int; lim : int }

(* Consume [n] bytes; their offset in [src]. *)
let[@inline] take c n =
  let at = c.pos in
  if n > c.lim - at then corrupt "read past the blob";
  c.pos <- at + n;
  at

let[@inline] byte c = Bytes.get_uint8 c.src (take c 1)

let[@inline] read_varint64 c =
  let v = ref 0L and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 63 then corrupt "overlong varint";
    let b = byte c in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !v

(* Most varints are one byte; those skip the int64 loop. *)
let read_varint c =
  let at = c.pos in
  if at < c.lim && Bytes.get_uint8 c.src at < 0x80 then begin
    c.pos <- at + 1;
    Bytes.get_uint8 c.src at
  end
  else
    let v = read_varint64 c in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      corrupt "varint out of int range";
    Int64.to_int v

let decode b =
  if not (is_compressed b) then
    invalid_arg "Vcompress.decode: not a compressed history page";
  let psize = Bytes.length b in
  let n = Codec.get_u16 b P.header_size in
  let lim = blob_start + Codec.get_u16 b (P.header_size + 2) in
  if lim > psize then corrupt "blob overruns the page";
  let c = { src = b; pos = blob_start; lim } in
  let out = Bytes.make psize '\000' in
  (* every header field but the reserved u16, which stays zero *)
  Bytes.blit b 0 out 0 (P.header_size - 2);
  P.set_page_type out P.P_history;
  let cursor = ref P.header_size in
  (* Lay out slot [slot]'s cell with its fixed fields and implicit VP
     [slot + 1]; the body offset.  Key, payload and Ttime are the
     caller's to write. *)
  let cell slot ~flags ~k ~p ~sn =
    let at = !cursor and len = R.fixed_overhead + k + p in
    if at + 2 + len > psize - (2 * (slot + 1)) then
      corrupt "cells overrun the slot array";
    Bytes.set_uint16_le out (psize - (2 * (slot + 1))) at;
    Bytes.set_uint16_le out at len;
    cursor := at + 2 + len;
    let o = at + 2 in
    Bytes.set_uint8 out o flags;
    Bytes.set_uint16_le out (o + 1) k;
    Bytes.set_uint16_le out (o + 3) p;
    let tail = o + 5 + k + p in
    Bytes.set_uint16_le out tail (slot + 1);
    Bytes.set_int32_le out (tail + 10) (Int32.of_int sn);
    o
  in
  let slot = ref 0 in
  while !slot < n do
    let s = !slot in
    let len = read_varint c in
    if len <= 0 || len > n - s then corrupt "bad chain length";
    let flags = byte c in
    let raw = read_varint64 c in
    let sn = read_varint c in
    let k = read_varint c in
    let key = take c k in
    let p = read_varint c in
    let payload = take c p in
    let head = cell s ~flags ~k ~p ~sn in
    Bytes.blit b key out (head + 5) k;
    Bytes.blit b payload out (head + 5 + k) p;
    Bytes.set_int64_le out (tail out head + 2) raw;
    let prev = ref head in
    for i = 1 to len - 1 do
      let flags = byte c in
      let d = read_varint64 c in
      let sn = read_varint c in
      let pre = read_varint c in
      let suf = read_varint c in
      let midlen = read_varint c in
      let mid = take c midlen in
      let lp = plen out !prev in
      if pre > lp || suf > lp - pre then corrupt "bad payload diff";
      let o = cell (s + i) ~flags ~k ~p:(pre + midlen + suf) ~sn in
      let pp = !prev + 5 + k and cp = o + 5 + k in
      Bytes.blit out (head + 5) out (o + 5) k;
      Bytes.blit out pp out cp pre;
      Bytes.blit b mid out (cp + pre) midlen;
      Bytes.blit out (pp + lp - suf) out (cp + pre + midlen) suf;
      Bytes.set_int64_le out (tail out o + 2)
        (Int64.sub (raw_ttime out !prev) d);
      prev := o
    done;
    let vpspec = read_varint c in
    Bytes.set_uint16_le out (tail out !prev)
      (if vpspec = 0 then R.no_vp else vpspec - 1);
    slot := s + len
  done;
  Codec.set_u16 out 18 n (* slot_count *);
  Codec.set_u16 out 20 !cursor (* free_lower *);
  Codec.set_u16 out 22 0 (* garbage *);
  out
