(* The table catalog: name -> table descriptor, stored in a system B-tree.

   The IMMORTAL keyword of the paper's DDL ("Create IMMORTAL Table ...")
   becomes the [Immortal] mode flag here; the catalog flag "is visible to
   the storage engine" and decides versioning, PTT participation and AS OF
   support, exactly as in Section 4.1. *)

type table_mode =
  | Immortal (* persistent versions, time splits, AS OF *)
  | Snapshot_table (* versions kept only for snapshot isolation; GC'd *)
  | Conventional (* update in place, no versions *)

let mode_tag = function Immortal -> 0 | Snapshot_table -> 1 | Conventional -> 2

let mode_of_tag = function
  | 0 -> Immortal
  | 1 -> Snapshot_table
  | 2 -> Conventional
  | n -> failwith (Printf.sprintf "Catalog: bad mode tag %d" n)

let pp_mode ppf m =
  Fmt.string ppf
    (match m with
    | Immortal -> "immortal"
    | Snapshot_table -> "snapshot"
    | Conventional -> "conventional")

type table_info = {
  ti_id : int;
  ti_name : string;
  ti_mode : table_mode;
  ti_schema : Schema.t;
  mutable ti_root : int; (* key router root (versioned) / B-tree root (conventional) *)
  mutable ti_tsb_root : int; (* 0 = no TSB index *)
  mutable ti_buf_root : int; (* ingest message-buffer page; 0 = none allocated *)
}

let encode_info ti =
  let w = Imdb_util.Codec.Writer.create () in
  Imdb_util.Codec.Writer.u32 w ti.ti_id;
  Imdb_util.Codec.Writer.lstring w ti.ti_name;
  Imdb_util.Codec.Writer.u8 w (mode_tag ti.ti_mode);
  Imdb_util.Codec.Writer.u32 w ti.ti_root;
  Imdb_util.Codec.Writer.u32 w ti.ti_tsb_root;
  Imdb_util.Codec.Writer.u32 w ti.ti_buf_root;
  Imdb_util.Codec.Writer.bytes w (Schema.encode ti.ti_schema);
  Imdb_util.Codec.Writer.contents w

let decode_info b =
  let r = Imdb_util.Codec.Reader.create b in
  let ti_id = Imdb_util.Codec.Reader.u32 r in
  let ti_name = Imdb_util.Codec.Reader.lstring r in
  let ti_mode = mode_of_tag (Imdb_util.Codec.Reader.u8 r) in
  let ti_root = Imdb_util.Codec.Reader.u32 r in
  let ti_tsb_root = Imdb_util.Codec.Reader.u32 r in
  let ti_buf_root = Imdb_util.Codec.Reader.u32 r in
  let ti_schema = Schema.decode_from r in
  { ti_id; ti_name; ti_mode; ti_schema; ti_root; ti_tsb_root; ti_buf_root }

(* DDL writes are transactional B-tree updates (undoable); the caller
   commits them like any other update. *)
let store tree ti = Imdb_btree.Btree.insert tree ~key:ti.ti_name ~value:(encode_info ti)

(* Buffer-page allocation is a structure modification, not a user-visible
   DDL change: re-store the descriptor redo-only so it survives even if
   the allocating transaction later aborts (the page stays allocated, like
   any other structure-modification page). *)
let store_redo_only tree ti =
  Imdb_btree.Btree.insert tree ~undoable:false ~key:ti.ti_name ~value:(encode_info ti)

let remove tree name = Imdb_btree.Btree.delete tree ~key:name

let load_all tree =
  Imdb_btree.Btree.fold tree ~init:[] ~f:(fun acc _ v -> decode_info v :: acc)
  |> List.rev
