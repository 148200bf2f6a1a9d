(* The persistent timestamp table (paper Section 2.2).

   A disk table (TID, Ttime, SN) organized as a B-tree ordered by TID —
   since TIDs are assigned in ascending order, the live entries cluster at
   the tail of the tree and lookups of recent transactions stay cheap even
   if crashes leave a residue of uncollectable entries.

   Mappings are posted at checkpoint, not at commit: one redo-only batch
   holds every committed TID that the checkpoint would otherwise leave
   without a source (its Commit record falls below the redo-scan start
   the checkpoint record names, and some version may still carry the
   TID).  TIDs only grow, so the batch lies beyond every key in the tree
   and is appended at its right edge as whole leaves.  Deletions are
   garbage collection, redo-only too; nothing here belongs to a
   transaction. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module M = Imdb_obs.Metrics

let ptt_deletes = M.counter_of M.ptt_deletes
let ptt_inserts = M.counter_of M.ptt_inserts
let ptt_lookups = M.counter_of M.ptt_lookups

type t = {
  tree : Imdb_btree.Btree.t;
  mutable metrics : M.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

(* Order-preserving big-endian encoding of the TID. *)
let key_of_tid tid =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Tid.to_int64 tid);
  Bytes.to_string b

let tid_of_key k = Tid.of_int64 (Bytes.get_int64_be (Bytes.of_string k) 0)

let value_of_ts ts =
  let b = Bytes.create Ts.on_disk_size in
  Ts.write b 0 ts;
  b

let ts_of_value v = Ts.read v 0

let create ?(metrics = M.null) ?(tracer = Imdb_obs.Tracer.null) ~pool ~io
    ~table_id () =
  { tree = Imdb_btree.Btree.create ~metrics ~tracer ~pool ~io ~table_id ~name:"ptt" ();
    metrics; tracer }

let attach ?(metrics = M.null) ?(tracer = Imdb_obs.Tracer.null) ~pool ~io ~root
    ~table_id () =
  { tree = Imdb_btree.Btree.attach ~metrics ~tracer ~pool ~io ~root ~table_id ~name:"ptt" ();
    metrics; tracer }

let root t = Imdb_btree.Btree.root t.tree

let count l = string_of_int (List.length l)

(* Checkpoint posting: TIDs are assigned in order, so a batch lands at
   the tree's right edge — filled leaves, one logged image each. *)
let insert_batch t mappings =
  Imdb_obs.Tracer.with_span t.tracer "ptt.insert_batch" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "tids" count mappings;
  M.add t.metrics ptt_inserts (List.length mappings);
  Imdb_btree.Btree.insert_batch t.tree
    (List.map (fun (tid, ts) -> (key_of_tid tid, value_of_ts ts)) mappings)

let lookup t tid =
  M.incr t.metrics ptt_lookups;
  Option.map ts_of_value (Imdb_btree.Btree.find t.tree ~key:(key_of_tid tid))

(* Batched GC: TIDs are assigned in order, so a checkpoint's candidates
   cluster in a handful of leaves — one descent covers the run. *)
let delete_batch t tids =
  Imdb_obs.Tracer.with_span t.tracer "ptt.delete_batch" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "tids" count tids;
  M.add t.metrics ptt_deletes (List.length tids);
  Imdb_btree.Btree.delete_batch t.tree ~keys:(List.map key_of_tid tids)

let count t = Imdb_btree.Btree.count t.tree

let iter t f =
  Imdb_btree.Btree.iter t.tree (fun k v -> f (tid_of_key k) (ts_of_value v))

(* The oldest TID still recorded — a measure of how well GC keeps up. *)
let min_tid t = Option.map (fun (k, _) -> tid_of_key k) (Imdb_btree.Btree.min_binding t.tree)
