(* Slotted pages.

   Layout (little-endian, [header_size] = 56 bytes):

   {v
     0  u32  checksum          over bytes [8, page_size) at write time
     4  u32  page_id
     8  i64  page_lsn          LSN of the last *logged* change
    16  u8   page_type
    17  u8   flags
    18  u16  slot_count        slot entries allocated (live + dead)
    20  u16  free_lower        end of the cell area (cells grow upward)
    22  u16  garbage           dead-cell bytes reclaimable by compaction
    24  u32  history_pointer   page id of the historical page chain (0 = none)
    28  12B  split_time        start time of versions in this page (Fig. 3)
    40  u32  next_page         sibling / chain link
    44  u32  prev_page
    48  u32  table_id
    52  u16  level             B-tree level, 0 = leaf
    54  u16  reserved
    56  ...  cells
    ...      free space
    end ...  slot array, u16 per slot, growing downward from page end
   v}

   Each slot entry holds the byte offset of its cell, or 0 if the slot is
   dead.  A cell is a u16 body length followed by the body.  Slot numbers
   are stable for the lifetime of the data they name: cells move only
   under [compact], which preserves slot numbering, so the intra-page
   version chains of Immortal DB (which address versions by slot number)
   survive compaction.

   Mutating operations are deterministic functions of the page image, a
   property the physiological WAL redo relies on: replaying the same
   operations against the same starting image reproduces identical bytes.

   The checksum is *not* maintained incrementally; callers (the buffer
   pool) call [seal] just before writing a page to disk and [verify] after
   reading one. *)

open Imdb_util

let header_size = 56
let no_page = 0 (* page id 0 is the metadata page, usable as a null link *)
let dead_slot = 0 (* slot-entry value marking a dead slot *)

type page_type =
  | P_free
  | P_meta
  | P_data (* clustered-table leaf holding record versions *)
  | P_history (* historical versions produced by time splits *)
  | P_index (* B-tree internal node *)
  | P_tsb_index (* TSB-tree index node *)
  | P_heap (* unversioned auxiliary storage (split-store baseline) *)
  | P_history_compressed (* delta-compressed historical page (Vcompress) *)
  | P_msg_buffer (* buffered ingest messages awaiting a downward flush *)

let int_of_page_type = function
  | P_free -> 0
  | P_meta -> 1
  | P_data -> 2
  | P_history -> 3
  | P_index -> 4
  | P_tsb_index -> 5
  | P_heap -> 6
  | P_history_compressed -> 7
  | P_msg_buffer -> 8

let page_type_of_int = function
  | 0 -> P_free
  | 1 -> P_meta
  | 2 -> P_data
  | 3 -> P_history
  | 4 -> P_index
  | 5 -> P_tsb_index
  | 6 -> P_heap
  | 7 -> P_history_compressed
  | 8 -> P_msg_buffer
  | n -> invalid_arg (Printf.sprintf "Page.page_type_of_int: %d" n)

let pp_page_type ppf t =
  Fmt.string ppf
    (match t with
    | P_free -> "free"
    | P_meta -> "meta"
    | P_data -> "data"
    | P_history -> "history"
    | P_index -> "index"
    | P_tsb_index -> "tsb-index"
    | P_heap -> "heap"
    | P_history_compressed -> "history-z"
    | P_msg_buffer -> "msg-buffer")

(* --- header accessors -------------------------------------------------- *)

let page_id b = Codec.get_u32 b 4
let set_page_id b v = Codec.set_u32 b 4 v
let lsn b = Codec.get_i64 b 8
let set_lsn b v = Codec.set_i64 b 8 v
let page_type b = page_type_of_int (Codec.get_u8 b 16)
let set_page_type b v = Codec.set_u8 b 16 (int_of_page_type v)
(* The slot count, the free-space bound and the slot array are read and
   written with plain [Bytes] accessors, not [Codec]'s: these run once per
   slot on every page scan and rebuild, a slot is range-checked against
   the count already, and [Bytes] still bounds-checks each access. *)
let slot_count b = Bytes.get_uint16_le b 18
let set_slot_count b v = Bytes.set_uint16_le b 18 v
let free_lower b = Bytes.get_uint16_le b 20
let set_free_lower b v = Bytes.set_uint16_le b 20 v
let garbage b = Codec.get_u16 b 22
let set_garbage b v = Codec.set_u16 b 22 v
let history_pointer b = Codec.get_u32 b 24
let set_history_pointer b v = Codec.set_u32 b 24 v
let split_time b = Imdb_clock.Timestamp.read b 28
let set_split_time b v = Imdb_clock.Timestamp.write b 28 v
let next_page b = Codec.get_u32 b 40
let set_next_page b v = Codec.set_u32 b 40 v
let prev_page b = Codec.get_u32 b 44
let set_prev_page b v = Codec.set_u32 b 44 v
let table_id b = Codec.get_u32 b 48
let set_table_id b v = Codec.set_u32 b 48 v
let level b = Codec.get_u16 b 52
let set_level b v = Codec.set_u16 b 52 v

(* --- formatting & checksums -------------------------------------------- *)

let format b ~page_id:id ~page_type:pt ?(table_id = 0) ?(level = 0) () =
  Bytes.fill b 0 (Bytes.length b) '\000';
  set_page_id b id;
  set_page_type b pt;
  set_slot_count b 0;
  set_free_lower b header_size;
  set_garbage b 0;
  set_history_pointer b no_page;
  set_split_time b Imdb_clock.Timestamp.zero;
  set_next_page b no_page;
  set_prev_page b no_page;
  set_table_id b table_id;
  set_level b level

let seal b =
  let crc = Checksum.range b ~pos:8 ~len:(Bytes.length b - 8) in
  Codec.set_u32 b 0 crc

let verify b =
  let crc = Checksum.range b ~pos:8 ~len:(Bytes.length b - 8) in
  Codec.get_u32 b 0 = crc

(* --- slot array --------------------------------------------------------- *)

let slot_entry_pos b slot = Bytes.length b - (2 * (slot + 1))

let slot_offset b slot =
  if slot < 0 || slot >= slot_count b then
    invalid_arg
      (Printf.sprintf "Page.slot_offset: slot %d of %d (page %d)" slot
         (slot_count b) (page_id b));
  Bytes.get_uint16_le b (slot_entry_pos b slot)

let set_slot_offset b slot v = Bytes.set_uint16_le b (slot_entry_pos b slot) v
let slot_live b slot = slot_offset b slot <> dead_slot

(* --- cells --------------------------------------------------------------- *)

let cell_length b slot =
  let off = slot_offset b slot in
  if off = dead_slot then invalid_arg "Page.cell_length: dead slot";
  Codec.get_u16 b off

(* Byte offset of the cell *body* for [slot]; stable until the next
   [compact], which only runs inside mutating operations.  Callers must not
   hold an offset across a mutation. *)
let cell_body_offset b slot =
  let off = slot_offset b slot in
  if off = dead_slot then invalid_arg "Page.cell_body_offset: dead slot";
  off + 2

let read_cell b slot = Codec.get_bytes b (cell_body_offset b slot) (cell_length b slot)

let patch_cell b slot ~at ~src =
  let body = cell_body_offset b slot and len = cell_length b slot in
  if at < 0 || at + Bytes.length src > len then
    invalid_arg "Page.patch_cell: out of cell bounds";
  Codec.set_bytes b (body + at) src

(* Slot-preserving compaction: rewrite all live cells contiguously from
   [header_size], leaving slot numbering untouched. *)
let compact b =
  let n = slot_count b in
  let live = ref [] in
  for slot = 0 to n - 1 do
    let off = Bytes.get_uint16_le b (slot_entry_pos b slot) in
    if off <> dead_slot then live := (slot, off) :: !live
  done;
  (* Copy in ascending original-offset order so that blits never overlap
     destructively (destination is always <= source). *)
  let live = List.sort (fun (_, a) (_, b) -> compare a b) !live in
  let cursor = ref header_size in
  List.iter
    (fun (slot, off) ->
      let total = 2 + Codec.get_u16 b off in
      if off <> !cursor then begin
        Bytes.blit b off b !cursor total;
        set_slot_offset b slot !cursor
      end;
      cursor := !cursor + total)
    live;
  set_free_lower b !cursor;
  set_garbage b 0

let slot_array_start b = Bytes.length b - (2 * slot_count b)

(* Free bytes available without compaction (contiguous middle gap). *)
let contiguous_free b = slot_array_start b - free_lower b

(* Free bytes available after compaction. *)
let free_space b = contiguous_free b + garbage b

(* The slot an insert takes: the first dead slot, else [slot_count],
   growing the array.  Insertion reuses dead slots before growing the
   slot array, deterministically.  Manual loop: runs on every insert. *)
let next_insert_slot b =
  let psize = Bytes.length b in
  let n = slot_count b in
  let rec go i =
    if i >= n || Bytes.get_uint16_le b (psize - 2 - (2 * i)) = dead_slot then i
    else go (i + 1)
  in
  go 0

(* The slot a body of [len] bytes would take, if it fits (possibly after
   compaction).  Accounts for the 2-byte cell header and for a new slot
   entry when no dead slot is available. *)
let insert_slot b len =
  let slot = next_insert_slot b in
  let slot_cost = if slot = slot_count b then 2 else 0 in
  if free_space b >= len + 2 + slot_cost then Some slot else None

(* Insert [body] at [slot].  [slot] must be either a dead slot or exactly
   [slot_count] (growing the array by one).  Raises [Failure] when the page
   cannot hold the cell; callers check [insert_slot] first (split path). *)
let insert_at_slot b slot body =
  let len = Bytes.length body in
  let n = slot_count b in
  let growing = slot = n in
  if not (growing || (slot < n && not (slot_live b slot))) then
    invalid_arg
      (Printf.sprintf "Page.insert_at_slot: slot %d not insertable (count %d)" slot n);
  let slot_cost = if growing then 2 else 0 in
  if free_space b < len + 2 + slot_cost then
    failwith
      (Printf.sprintf "Page.insert_at_slot: page %d full (need %d, free %d)"
         (page_id b) (len + 2 + slot_cost) (free_space b));
  (* Growing the slot array claims the 2 bytes just below it; if the cell
     area has crept past that point (dead space not yet compacted), those
     bytes may belong to a live cell — compact first.  The fresh entry is
     then initialized to dead before anything (e.g. the second compaction)
     can read the stale bytes at its position as an offset. *)
  if growing && free_lower b > slot_entry_pos b n then compact b;
  if growing then begin
    set_slot_count b (n + 1);
    set_slot_offset b n dead_slot
  end;
  if contiguous_free b < len + 2 then compact b;
  let off = free_lower b in
  Codec.set_u16 b off len;
  Codec.set_bytes b (off + 2) body;
  set_slot_offset b slot off;
  set_free_lower b (off + 2 + len)

(* Pre-extend the slot array of a freshly formatted page to [n] dead
   slots.  Page rebuilds (time splits, key splits) use this to keep
   surviving records at their original slot numbers, which preserves both
   intra-page version chains and the validity of in-flight transactions'
   logged slot references. *)
let reserve_slots b n =
  if slot_count b <> 0 then invalid_arg "Page.reserve_slots: page not empty";
  set_slot_count b n;
  (* every entry dead: [dead_slot] is the all-zero entry *)
  Bytes.fill b (slot_entry_pos b (n - 1)) (2 * n) '\000'

(* Append a copy of live cell [slot] of [src] to the cell area of [dst]
   and point [dst]'s reserved dead slot [dst_slot] at it; returns the
   copy's body offset.  Page rebuilds use it to copy versions without
   materializing them: [dst] is a fresh image with room for every copy,
   so nothing here compacts. *)
let blit_cell src slot dst dst_slot =
  let off = slot_offset src slot in
  if off = dead_slot then invalid_arg "Page.blit_cell: dead slot";
  let total = 2 + Bytes.get_uint16_le src off in
  if slot_live dst dst_slot || contiguous_free dst < total then
    invalid_arg "Page.blit_cell: no room";
  let at = free_lower dst in
  Bytes.blit src off dst at total;
  set_slot_offset dst dst_slot at;
  set_free_lower dst (at + total);
  at + 2

(* Insert [body] into any available slot and return the slot used. *)
let insert b body =
  let slot = next_insert_slot b in
  insert_at_slot b slot body;
  slot

let delete_slot b slot =
  let off = slot_offset b slot in
  if off = dead_slot then invalid_arg "Page.delete_slot: already dead";
  let total = 2 + Codec.get_u16 b off in
  set_slot_offset b slot dead_slot;
  set_garbage b (garbage b + total);
  (* If the tail of the cell area died we can reclaim it immediately,
     keeping free_lower tight for append-heavy workloads. *)
  if off + total = free_lower b then begin
    set_free_lower b off;
    set_garbage b (garbage b - total)
  end

(* Replace the body of [slot] with [body] (sizes may differ).  Implemented
   as delete + insert-at-same-slot so the deterministic-redo property is
   preserved by logging it as two ops or one Op_replace. *)
let replace_at_slot b slot body =
  delete_slot b slot;
  insert_at_slot b slot body

let live_count b =
  let c = ref 0 in
  for slot = 0 to slot_count b - 1 do
    if Bytes.get_uint16_le b (slot_entry_pos b slot) <> dead_slot then incr c
  done;
  !c

let iter_live b f =
  for slot = 0 to slot_count b - 1 do
    if Bytes.get_uint16_le b (slot_entry_pos b slot) <> dead_slot then f slot
  done

let rfind_map_cell b f =
  let top = Bytes.length b in
  let rec go slot =
    if slot < 0 then None
    else
      let off = Bytes.get_uint16_le b (top - (2 * (slot + 1))) in
      if off = dead_slot then go (slot - 1)
      else match f (off + 2) with Some _ as hit -> hit | None -> go (slot - 1)
  in
  go (slot_count b - 1)

let fold_live b ~init ~f =
  let acc = ref init in
  iter_live b (fun slot -> acc := f !acc slot);
  !acc

(* Bytes used by live cells (excluding headers/slots): the utilization
   measure used by the time-split/key-split policy. *)
let live_bytes b =
  fold_live b ~init:0 ~f:(fun acc slot -> acc + cell_length b slot + 2)

let utilization b =
  float_of_int (live_bytes b) /. float_of_int (Bytes.length b - header_size)
