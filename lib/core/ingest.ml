(* Ingest messages (write-optimized ingestion, Bε-tree style).

   A buffered write does not descend to its data page: it appends one
   *message* — the write's kind, key, payload, owning transaction, and a
   snapshot of the logical clock at append time — to the table's single
   message-buffer page (type [P_msg_buffer]).  A later flush reads the
   page's live cells in slot order, which is arrival order (appends only
   grow the slot array), and applies each message through the same
   version-chain primitives the unbuffered path uses, so the data pages
   a reader sees are byte-identical to what per-row descents would have
   produced (the clock snapshot reproduces the split times deferred
   splits would have chosen).

   This module owns the message codec only.  The buffer page is the one
   record of buffered writes: appends are WAL-logged by the engine
   ([Op_msg_append]), and nothing volatile mirrors the page. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module Codec = Imdb_util.Codec

type kind = M_insert | M_update | M_upsert | M_delete

let kind_tag = function M_insert -> 0 | M_update -> 1 | M_upsert -> 2 | M_delete -> 3

let kind_of_tag = function
  | 0 -> M_insert
  | 1 -> M_update
  | 2 -> M_upsert
  | 3 -> M_delete
  | n -> failwith (Printf.sprintf "Ingest: bad message kind %d" n)

type msg = {
  m_tid : Tid.t;
  m_kind : kind;
  m_key : string;
  m_payload : string; (* "" for delete stubs *)
  m_clock : Ts.t; (* Clock.last_issued at append; deferred-split time base *)
}

(* Kind and key lead, so the existence check reads them in place. *)
let encode_msg m =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w (kind_tag m.m_kind);
  Codec.Writer.lstring w m.m_key;
  Codec.Writer.i64 w (Tid.to_int64 m.m_tid);
  Codec.Writer.i64 w (Ts.ttime m.m_clock);
  Codec.Writer.u32 w (Ts.sn m.m_clock);
  Codec.Writer.lstring w m.m_payload;
  Codec.Writer.contents w

let decode_msg b =
  let r = Codec.Reader.create b in
  let m_kind = kind_of_tag (Codec.Reader.u8 r) in
  let m_key = Codec.Reader.lstring r in
  let m_tid = Tid.of_int64 (Codec.Reader.i64 r) in
  let ttime = Codec.Reader.i64 r in
  let sn = Codec.Reader.u32 r in
  let m_payload = Codec.Reader.lstring r in
  { m_tid; m_kind; m_key; m_payload; m_clock = Ts.make ~ttime ~sn }

(* Allocation-free comparison of [n] bytes at [off] with [key]. *)
let rec key_bytes_equal page off key n i =
  i >= n
  || (Bytes.unsafe_get page (off + i) = String.unsafe_get key i
     && key_bytes_equal page off key n (i + 1))

let is_for_key page ~key off =
  let n = String.length key in
  (* keys often share a prefix (encoded integers): test the last byte
     first, then the rest *)
  Bytes.get_uint16_le page (off + 1) = n
  && (n = 0
     || Bytes.get page (off + 2 + n) = key.[n - 1]
        && key_bytes_equal page (off + 3) key (n - 1) 0)

let kind_at page off = kind_of_tag (Bytes.get_uint8 page off)
