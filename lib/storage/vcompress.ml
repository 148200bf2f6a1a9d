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

   [decode] is an exact inverse: re-inserting the reconstructed cells in
   slot order into a fresh page reproduces the encoder's input image
   byte for byte (same offsets, same slot array, same header).

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

let raw_ttime r = Imdb_clock.Tid.encode_ttime_field r.R.ttime

(* What a time split builds: a history page whose cells sit exactly
   where sequential re-insertion will put them (or decoding could not
   reproduce the image byte for byte), every version stamped. *)
let split_output plain =
  let n = P.slot_count plain in
  let cursor = ref P.header_size in
  let ok = ref (P.page_type plain = P.P_history && P.garbage plain = 0) in
  for slot = 0 to n - 1 do
    if !ok then
      if
        (not (P.slot_live plain slot))
        || P.slot_offset plain slot <> !cursor
        || R.in_page_timestamp plain slot = None
      then ok := false
      else cursor := !cursor + 2 + P.cell_length plain slot
  done;
  !ok && P.free_lower plain = !cursor

let chains_to m r = r.R.vp = m && not (R.vp_in_history r)

let encode plain =
  if not (split_output plain) then
    invalid_arg "Vcompress.encode: not a time split's history image";
  let n = P.slot_count plain in
  let recs = Array.init n (fun slot -> R.read_in_page plain slot) in
  let w = Codec.Writer.create ~size:256 () in
  let s = ref 0 in
  while !s < n do
    (* maximal run of chain-linked, time-ordered cells *)
    let e = ref !s in
    let extending = ref true in
    while !extending && !e + 1 < n do
      let cur = recs.(!e) and nxt = recs.(!e + 1) in
      if
        chains_to (!e + 1) cur
        && String.equal cur.R.key nxt.R.key
        && Int64.compare (raw_ttime cur) (raw_ttime nxt) >= 0
      then incr e
      else extending := false
    done;
    let head = recs.(!s) in
    Codec.Writer.varint w (!e - !s + 1);
    Codec.Writer.u8 w head.R.flags;
    Codec.Writer.varint64 w (raw_ttime head);
    Codec.Writer.varint w head.R.sn;
    Codec.Writer.varint w (String.length head.R.key);
    Codec.Writer.string w head.R.key;
    Codec.Writer.varint w (String.length head.R.payload);
    Codec.Writer.string w head.R.payload;
    for i = !s + 1 to !e do
      let prev = recs.(i - 1) and cur = recs.(i) in
      Codec.Writer.u8 w cur.R.flags;
      Codec.Writer.varint64 w (Int64.sub (raw_ttime prev) (raw_ttime cur));
      Codec.Writer.varint w cur.R.sn;
      let p = prev.R.payload and c = cur.R.payload in
      let lp = String.length p and lc = String.length c in
      let maxpre = min lp lc in
      let pre = ref 0 in
      while !pre < maxpre && p.[!pre] = c.[!pre] do
        incr pre
      done;
      let maxsuf = maxpre - !pre in
      let suf = ref 0 in
      while !suf < maxsuf && p.[lp - 1 - !suf] = c.[lc - 1 - !suf] do
        incr suf
      done;
      let midlen = lc - !pre - !suf in
      Codec.Writer.varint w !pre;
      Codec.Writer.varint w !suf;
      Codec.Writer.varint w midlen;
      Codec.Writer.string w (String.sub c !pre midlen)
    done;
    let last = recs.(!e) in
    Codec.Writer.varint w (if last.R.vp = R.no_vp then 0 else last.R.vp + 1);
    s := !e + 1
  done;
  let blob = Codec.Writer.contents w in
  let blen = Bytes.length blob in
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
  Codec.set_bytes out blob_start blob;
  out

let is_compressed b = P.page_type b = P.P_history_compressed
let encoded_size b = blob_start + Codec.get_u16 b (P.header_size + 2)

let decode b =
  if not (is_compressed b) then
    invalid_arg "Vcompress.decode: not a compressed history page";
  let n = Codec.get_u16 b P.header_size in
  let blen = Codec.get_u16 b (P.header_size + 2) in
  let out = Bytes.create (Bytes.length b) in
  P.format out ~page_id:(P.page_id b) ~page_type:P.P_history
    ~table_id:(P.table_id b) ~level:(P.level b) ();
  (* restore the header fields [encode] carried over verbatim *)
  Codec.set_u32 out 0 (Codec.get_u32 b 0);
  P.set_lsn out (P.lsn b);
  P.set_flags out (P.flags b);
  P.set_history_pointer out (P.history_pointer b);
  P.set_split_time out (P.split_time b);
  P.set_next_page out (P.next_page b);
  P.set_prev_page out (P.prev_page b);
  let rd = Codec.Reader.create (Codec.get_bytes b blob_start blen) in
  let slot = ref 0 in
  while !slot < n do
    let len = Codec.Reader.varint rd in
    if len <= 0 || !slot + len > n then
      raise (Codec.Out_of_bounds "Vcompress.decode: bad chain length");
    let flags0 = Codec.Reader.u8 rd in
    let raw0 = Codec.Reader.varint64 rd in
    let sn0 = Codec.Reader.varint rd in
    let klen = Codec.Reader.varint rd in
    let key = Codec.Reader.string rd klen in
    let plen = Codec.Reader.varint rd in
    let payload0 = Codec.Reader.string rd plen in
    let members = Array.make len (flags0, raw0, sn0, payload0) in
    for i = 1 to len - 1 do
      let flags = Codec.Reader.u8 rd in
      let d = Codec.Reader.varint64 rd in
      let sn = Codec.Reader.varint rd in
      let _, prev_raw, _, prev_payload = members.(i - 1) in
      let pre = Codec.Reader.varint rd in
      let suf = Codec.Reader.varint rd in
      let midlen = Codec.Reader.varint rd in
      let mid = Codec.Reader.string rd midlen in
      let lp = String.length prev_payload in
      if pre + suf > lp then
        raise (Codec.Out_of_bounds "Vcompress.decode: bad payload diff");
      let payload =
        String.sub prev_payload 0 pre
        ^ mid
        ^ String.sub prev_payload (lp - suf) suf
      in
      members.(i) <- (flags, Int64.sub prev_raw d, sn, payload)
    done;
    let vpspec = Codec.Reader.varint rd in
    let last_vp = if vpspec = 0 then R.no_vp else vpspec - 1 in
    Array.iteri
      (fun i (flags, raw, sn, payload) ->
        let vp = if i = len - 1 then last_vp else !slot + i + 1 in
        let cell =
          R.encode
            {
              R.flags;
              key;
              payload;
              vp;
              ttime = Imdb_clock.Tid.decode_ttime_field raw;
              sn;
            }
        in
        ignore (P.insert out cell))
      members;
    slot := !slot + len
  done;
  out
