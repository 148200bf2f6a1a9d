(* The database metadata, stored as the single cell of page 0.

   Page 0 is a normal page flowing through the buffer pool and the WAL, so
   allocator updates are crash-consistent like everything else.  The one
   field read *outside* recovery is [last_checkpoint_lsn]: the engine
   force-flushes page 0 after each checkpoint, and an open reads the
   on-disk copy once, before it opens the log ([read_from_disk]).
   Recovery's one pass starts from the checkpoint record at that LSN,
   which was synced before the page was written, so every frame before
   it is durable.  A stale value only starts recovery at an older
   checkpoint, which is always safe; a missing or torn page starts it at
   LSN 0. *)

let magic = 0x494d4442 (* "IMDB" *)
(* 2: physical log ops carry after-images only; no CLR or Abort records
   3: checkpoints post every mapping recovery may need to the PTT; a
      version-2 checkpoint never posted snapshot-table TIDs, whose
      mappings only a scan of the whole log recovers
   4: Commit records say whether the transaction wrote versions, and a
      checkpoint names its redo start and posts only the mappings
      committed below it; a version-3 recovery seeds from the checkpoint
      and would miss the commits between the two
   5: ingest messages carry no sequence number, and lead with their kind
      and key; slot order on the buffer page is arrival order
   6: no Begin record, and a commit logs no End record: a transaction's
      first Update opens it in recovery's ATT and its Commit closes it; a
      version-5 log's Begin frames (body tag 0) no longer decode *)
let format_version = 6
let meta_page_id = 0
let meta_slot = 0

type t = {
  mutable hwm : int; (* first never-allocated page id *)
  mutable freelist_head : int; (* 0 = empty *)
  mutable catalog_root : int;
  mutable ptt_root : int;
  mutable next_table_id : int;
  mutable last_checkpoint_lsn : int64; (* 0 = never checkpointed *)
}

let fresh () =
  {
    hwm = 1; (* page 0 is the meta page itself *)
    freelist_head = 0;
    catalog_root = 0;
    ptt_root = 0;
    next_table_id = 10; (* ids below 10 are reserved for system structures *)
    last_checkpoint_lsn = 0L;
  }

(* System table ids, fixed by convention. *)
let catalog_table_id = 1
let ptt_table_id = 2

let encode m =
  let w = Imdb_util.Codec.Writer.create ~size:64 () in
  Imdb_util.Codec.Writer.u32 w magic;
  Imdb_util.Codec.Writer.u16 w format_version;
  Imdb_util.Codec.Writer.int w m.hwm;
  Imdb_util.Codec.Writer.u32 w m.freelist_head;
  Imdb_util.Codec.Writer.u32 w m.catalog_root;
  Imdb_util.Codec.Writer.u32 w m.ptt_root;
  Imdb_util.Codec.Writer.u32 w m.next_table_id;
  Imdb_util.Codec.Writer.i64 w m.last_checkpoint_lsn;
  Imdb_util.Codec.Writer.contents w

exception Bad_meta of string

let decode b =
  let r = Imdb_util.Codec.Reader.create b in
  let m = Imdb_util.Codec.Reader.u32 r in
  if m <> magic then raise (Bad_meta (Printf.sprintf "bad magic %x" m));
  let v = Imdb_util.Codec.Reader.u16 r in
  if v <> format_version then raise (Bad_meta (Printf.sprintf "unsupported version %d" v));
  let hwm = Imdb_util.Codec.Reader.int r in
  let freelist_head = Imdb_util.Codec.Reader.u32 r in
  let catalog_root = Imdb_util.Codec.Reader.u32 r in
  let ptt_root = Imdb_util.Codec.Reader.u32 r in
  let next_table_id = Imdb_util.Codec.Reader.u32 r in
  let last_checkpoint_lsn = Imdb_util.Codec.Reader.i64 r in
  { hwm; freelist_head; catalog_root; ptt_root; next_table_id; last_checkpoint_lsn }

(* The on-disk meta page, if it is there and intact.  A torn page gives
   [None] (recovery reads from LSN 0); an intact page of another format
   raises [Bad_meta], stopping the open before anything reads the log. *)
let read_from_disk (disk : Imdb_storage.Disk.t) =
  let module P = Imdb_storage.Page in
  if not (disk.page_exists meta_page_id) then None
  else
    let b = disk.read_page meta_page_id in
    if not (P.verify b) then None
    else try Some (decode (P.read_cell b meta_slot)) with
      | Bad_meta _ as e -> raise e
      | _ -> None
