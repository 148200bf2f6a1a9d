(* Record versions as stored in cells (Fig. 1 of the paper).

   Body layout:

   {v
     0        u8   flags
     1        u16  key length  (k)
     3        u16  payload length (p)
     5        key bytes
     5+k      payload bytes
     5+k+p    versioning tail, 14 bytes:
                +0  u16  VP   version pointer (slot number), [no_vp] = none
                +2  i64  Ttime: commit time, or flagged TID if unstamped
                +10 u32  SN   timestamp sequence number
   v}

   The 14-byte tail mirrors SQL Server's snapshot-versioning bytes exactly
   as the paper reuses them: VP(2) | Ttime(8) | SN(4).  VP addresses the
   previous version of the record by slot number — within the same page
   normally, or within the page named by the enclosing page's
   history_pointer when [f_vp_in_history] is set (Section 3.1: "the
   version pointer (VP) field is used to store the slot number of the
   earlier version in the historical page"). *)

open Imdb_util

let tail_size = 14
let fixed_overhead = 5 + tail_size
let no_vp = 0xFFFF

(* flags *)
let f_delete_stub = 0x01 (* this version is a delete stub: key was deleted *)
let f_vp_in_history = 0x02 (* VP names a slot in the history page, not here *)
let f_non_current = 0x04 (* an old version shadowed by a newer one *)

type t = {
  flags : int;
  key : string;
  payload : string;
  vp : int;
  ttime : Imdb_clock.Tid.ttime_field;
  sn : int;
}

let is_delete_stub r = r.flags land f_delete_stub <> 0
let is_non_current r = r.flags land f_non_current <> 0
let vp_in_history r = r.flags land f_vp_in_history <> 0

let size ~key ~payload = fixed_overhead + String.length key + String.length payload

let encode { flags; key; payload; vp; ttime; sn } =
  let k = String.length key and p = String.length payload in
  if k > 0xffff || p > 0xffff then invalid_arg "Record.encode: field too long";
  let b = Bytes.create (fixed_overhead + k + p) in
  Codec.set_u8 b 0 flags;
  Codec.set_u16 b 1 k;
  Codec.set_u16 b 3 p;
  Codec.set_string b 5 key;
  Codec.set_string b (5 + k) payload;
  let tail = 5 + k + p in
  Codec.set_u16 b tail vp;
  Codec.set_i64 b (tail + 2) (Imdb_clock.Tid.encode_ttime_field ttime);
  Codec.set_u32 b (tail + 10) sn;
  b

let decode b =
  let flags = Codec.get_u8 b 0 in
  let k = Codec.get_u16 b 1 in
  let p = Codec.get_u16 b 3 in
  let key = Codec.get_string b 5 k in
  let payload = Codec.get_string b (5 + k) p in
  let tail = 5 + k + p in
  {
    flags;
    key;
    payload;
    vp = Codec.get_u16 b tail;
    ttime = Imdb_clock.Tid.decode_ttime_field (Codec.get_i64 b (tail + 2));
    sn = Codec.get_u32 b (tail + 10);
  }

(* ------------------------------------------------------------------ *)
(* In-place access on a page, without decoding the whole record.       *)
(* These are the workhorses of lazy timestamping: stamping a version    *)
(* touches only the 14-byte tail.                                       *)
(* ------------------------------------------------------------------ *)

let in_page_key page slot =
  let body = Page.cell_body_offset page slot in
  Codec.get_string page (body + 5) (Codec.get_u16 page (body + 1))

(* Allocation-free equality of a record's key with [key] — the hot path of
   every in-page lookup.  Top-level recursion: no per-call closure. *)
let rec key_bytes_equal page off key k i =
  i >= k || (Bytes.unsafe_get page (off + i) = String.unsafe_get key i
            && key_bytes_equal page off key k (i + 1))

let in_page_payload page slot =
  let body = Page.cell_body_offset page slot in
  let k = Codec.get_u16 page (body + 1) in
  let p = Codec.get_u16 page (body + 3) in
  Codec.get_string page (body + 5 + k) p

let in_page_key_matches page slot key =
  let body = Page.cell_body_offset page slot in
  let k = Codec.get_u16 page (body + 1) in
  k = String.length key && key_bytes_equal page (body + 5) key k 0

(* Offset of the tail *relative to the cell body* — the form needed for
   WAL Op_patch records, which address bytes within a cell. *)
let tail_offset_in_body page slot =
  let body = Page.cell_body_offset page slot in
  let k = Codec.get_u16 page (body + 1) in
  let p = Codec.get_u16 page (body + 3) in
  5 + k + p

let in_page_flags page slot = Codec.get_u8 page (Page.cell_body_offset page slot)
let set_in_page_flags page slot v = Codec.set_u8 page (Page.cell_body_offset page slot) v

let in_page_vp page slot =
  Codec.get_u16 page (Page.cell_body_offset page slot + tail_offset_in_body page slot)

let set_in_page_vp page slot v =
  Codec.set_u16 page (Page.cell_body_offset page slot + tail_offset_in_body page slot) v

let in_page_ttime page slot =
  Imdb_clock.Tid.decode_ttime_field
    (Codec.get_i64 page (Page.cell_body_offset page slot + tail_offset_in_body page slot + 2))

let set_in_page_ttime page slot field =
  Codec.set_i64 page
    (Page.cell_body_offset page slot + tail_offset_in_body page slot + 2)
    (Imdb_clock.Tid.encode_ttime_field field)

let in_page_sn page slot =
  Codec.get_u32 page (Page.cell_body_offset page slot + tail_offset_in_body page slot + 10)

let set_in_page_sn page slot v =
  Codec.set_u32 page (Page.cell_body_offset page slot + tail_offset_in_body page slot + 10) v

(* The record version's start timestamp, if stamped. *)
let in_page_timestamp page slot =
  match in_page_ttime page slot with
  | Imdb_clock.Tid.Stamped ms ->
      Some (Imdb_clock.Timestamp.make ~ttime:ms ~sn:(in_page_sn page slot))
  | Imdb_clock.Tid.Unstamped _ -> None

let read_in_page page slot = decode (Page.read_cell page slot)

let pp ppf r =
  let stamp =
    match r.ttime with
    | Imdb_clock.Tid.Stamped ms ->
        Imdb_clock.Timestamp.to_string (Imdb_clock.Timestamp.make ~ttime:ms ~sn:r.sn)
    | Imdb_clock.Tid.Unstamped tid -> Imdb_clock.Tid.to_string tid
  in
  Fmt.pf ppf "{key=%S payload=%S vp=%s %s%s%s@ %s}" r.key r.payload
    (if r.vp = no_vp then "-" else string_of_int r.vp)
    (if is_delete_stub r then "STUB " else "")
    (if is_non_current r then "old " else "")
    (if vp_in_history r then "vp>hist " else "")
    stamp
