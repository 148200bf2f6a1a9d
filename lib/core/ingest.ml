(* Ingest message buffers (write-optimized ingestion, Bε-tree style).

   A buffered write does not descend to its data page: it appends one
   *message* — the write's kind, key, payload, owning transaction, and a
   snapshot of the logical clock at append time — to the table's single
   message-buffer page (type [P_msg_buffer]).  A later flush drains the
   buffer in strict arrival order and applies each message through the
   same version-chain primitives the unbuffered path uses, so the data
   pages a reader sees are byte-identical to what per-row descents would
   have produced (the clock snapshot reproduces the split times deferred
   splits would have chosen).

   This module owns the message codec and the volatile per-table mirror
   of the buffer page: an arrival-ordered queue plus a newest-message-
   per-key map for O(1) existence checks.  Durability is not handled
   here — appends are WAL-logged by the engine ([Op_msg_append]) and the
   mirror is rebuilt from the buffer page image at attach time. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module P = Imdb_storage.Page
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
  m_seq : int; (* engine-global arrival order, unique per message *)
  m_tid : Tid.t;
  m_kind : kind;
  m_key : string;
  m_payload : string; (* "" for delete stubs *)
  m_clock : Ts.t; (* Clock.last_issued at append; deferred-split time base *)
}

let encode_msg m =
  let w = Codec.Writer.create () in
  Codec.Writer.i64 w (Int64.of_int m.m_seq);
  Codec.Writer.i64 w (Tid.to_int64 m.m_tid);
  Codec.Writer.u8 w (kind_tag m.m_kind);
  Codec.Writer.i64 w (Ts.ttime m.m_clock);
  Codec.Writer.u32 w (Ts.sn m.m_clock);
  Codec.Writer.lstring w m.m_key;
  Codec.Writer.lstring w m.m_payload;
  Codec.Writer.contents w

let decode_msg b =
  let r = Codec.Reader.create b in
  let m_seq = Int64.to_int (Codec.Reader.i64 r) in
  let m_tid = Tid.of_int64 (Codec.Reader.i64 r) in
  let m_kind = kind_of_tag (Codec.Reader.u8 r) in
  let ttime = Codec.Reader.i64 r in
  let sn = Codec.Reader.u32 r in
  let m_key = Codec.Reader.lstring r in
  let m_payload = Codec.Reader.lstring r in
  { m_seq; m_tid; m_kind; m_key; m_payload; m_clock = Ts.make ~ttime ~sn }

(* --- volatile per-table mirror ----------------------------------------- *)

type buf = {
  b_table : int;
  b_page : int; (* the P_msg_buffer page backing this mirror *)
  mutable b_msgs : msg list; (* newest first; reversed at drain *)
  b_newest : (string, msg) Hashtbl.t; (* key -> newest buffered message *)
  mutable b_count : int;
  mutable b_flushing : bool; (* re-entrancy guard during a flush *)
}

let create ~table_id ~page_id =
  {
    b_table = table_id;
    b_page = page_id;
    b_msgs = [];
    b_newest = Hashtbl.create 64;
    b_count = 0;
    b_flushing = false;
  }

let count b = b.b_count
let is_empty b = b.b_count = 0

let add b m =
  b.b_msgs <- m :: b.b_msgs;
  Hashtbl.replace b.b_newest m.m_key m;
  b.b_count <- b.b_count + 1

(* The newest buffered message for [key], if any — the front of the
   existence-check merge: a buffered delete means "absent", any other
   buffered message means "present", no message defers to the pages. *)
let newest b ~key = Hashtbl.find_opt b.b_newest key

(* Take every buffered message in arrival order and reset the mirror.
   The caller owns applying them (and truncating the backing page). *)
let drain b =
  let msgs = List.rev b.b_msgs in
  b.b_msgs <- [];
  Hashtbl.reset b.b_newest;
  b.b_count <- 0;
  msgs

(* Remove the message with sequence number [seq] (rollback path).  Returns
   true when it was present; the newest-per-key map entry is recomputed
   from the surviving messages for that key. *)
let remove_seq b ~seq =
  match List.find_opt (fun m -> m.m_seq = seq) b.b_msgs with
  | None -> false
  | Some victim ->
      b.b_msgs <- List.filter (fun m -> m.m_seq <> seq) b.b_msgs;
      b.b_count <- b.b_count - 1;
      (match Hashtbl.find_opt b.b_newest victim.m_key with
      | Some m when m.m_seq = seq -> (
          Hashtbl.remove b.b_newest victim.m_key;
          (* b_msgs is newest-first: the first survivor with this key is
             the new newest *)
          match List.find_opt (fun m -> m.m_key = victim.m_key) b.b_msgs with
          | Some m -> Hashtbl.replace b.b_newest victim.m_key m
          | None -> ())
      | _ -> ());
      true

(* Rebuild the mirror from the buffer page image (attach after recovery:
   redo has already reconstructed the page).  Cells hold one message
   each; arrival order is the sequence number, not the slot number. *)
let of_page ~table_id page =
  let b = create ~table_id ~page_id:(P.page_id page) in
  let msgs =
    P.fold_live page ~init:[] ~f:(fun acc slot -> decode_msg (P.read_cell page slot) :: acc)
  in
  let msgs = List.sort (fun a b -> compare a.m_seq b.m_seq) msgs in
  List.iter (add b) msgs;
  b

(* The highest sequence number present, for reseeding the engine's
   sequence counter at attach. *)
let max_seq b = List.fold_left (fun acc m -> max acc m.m_seq) 0 b.b_msgs
