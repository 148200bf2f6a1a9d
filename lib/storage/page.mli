(** Slotted pages — the on-disk unit of the engine.

    A page is a [bytes] of the device's page size holding a 56-byte
    header, cells growing up from the header, and a slot array of 2-byte
    cell offsets growing down from the end.  Slot numbers are stable for
    the lifetime of the data they name (compaction moves cells, never
    renumbers slots): Immortal DB's intra-page version chains address
    versions by slot number and survive reorganization.

    The header carries, besides identity and the page LSN, the two fields
    Immortal DB adds (paper Section 3.2): the {e history pointer} to the
    page's historical page chain and the {e split time} at which the page
    was last time-split — the start of its version time range.

    Mutating operations are deterministic functions of the page image,
    which the physiological WAL redo relies on.  The checksum is computed
    by [seal] just before a disk write and checked by [verify] after a
    read. *)

val header_size : int

val no_page : int
(** Page id 0: the metadata page, doubling as the null page link. *)

val dead_slot : int
(** Slot-array entry value marking a dead (reusable) slot. *)

type page_type =
  | P_free
  | P_meta
  | P_data  (** clustered-table leaf holding record versions *)
  | P_history  (** historical versions produced by time splits *)
  | P_index  (** B-tree internal node *)
  | P_tsb_index  (** TSB-tree index node *)
  | P_heap  (** B-tree leaf (PTT, catalog, routers, split-store) *)
  | P_history_compressed
      (** delta-compressed historical page; same 56-byte header (so
          header-only chain walks work untouched), cells replaced by a
          {!Vcompress} blob, slot count 0 (so stamping sweeps no-op) *)
  | P_msg_buffer
      (** per-table ingest buffer: each cell is one encoded write message
          awaiting a batch flush into the table's current data pages;
          appends only grow the slot array, so slot order is arrival
          order *)

val int_of_page_type : page_type -> int
val page_type_of_int : int -> page_type
val pp_page_type : Format.formatter -> page_type -> unit

(** {1 Header accessors} *)

val page_id : bytes -> int
val set_page_id : bytes -> int -> unit
val lsn : bytes -> int64
val set_lsn : bytes -> int64 -> unit
val page_type : bytes -> page_type
val set_page_type : bytes -> page_type -> unit
val slot_count : bytes -> int
val free_lower : bytes -> int
val garbage : bytes -> int
val history_pointer : bytes -> int
val set_history_pointer : bytes -> int -> unit
val split_time : bytes -> Imdb_clock.Timestamp.t
val set_split_time : bytes -> Imdb_clock.Timestamp.t -> unit
val next_page : bytes -> int
val set_next_page : bytes -> int -> unit
val prev_page : bytes -> int
val set_prev_page : bytes -> int -> unit
val table_id : bytes -> int
val level : bytes -> int

(** {1 Formatting and checksums} *)

val format :
  bytes -> page_id:int -> page_type:page_type -> ?table_id:int -> ?level:int -> unit -> unit
(** Zero the page and initialize the header. *)

val seal : bytes -> unit
(** Store the CRC-32 of the page contents in the header. *)

val verify : bytes -> bool
(** Check the stored CRC; false means a torn or corrupt page. *)

(** {1 Slots and cells} *)

val slot_offset : bytes -> int -> int
(** Raw slot-array entry; [dead_slot] if dead.  @raise Invalid_argument
    on out-of-range slots. *)

val slot_live : bytes -> int -> bool

val cell_length : bytes -> int -> int
(** Body length of a live cell.  @raise Invalid_argument on dead slots. *)

val cell_body_offset : bytes -> int -> int
(** Byte offset of the cell body — stable only until the next mutating
    operation (compaction may move cells). *)

val read_cell : bytes -> int -> bytes
(** Copy of a cell's body. *)

val patch_cell : bytes -> int -> at:int -> src:bytes -> unit
(** Overwrite bytes within a cell body, in place. *)

val insert : bytes -> bytes -> int
(** Insert a cell body into the first available slot; returns the slot.
    @raise Failure when the page is full (check [insert_slot] first). *)

val insert_at_slot : bytes -> int -> bytes -> unit
(** Insert at a specific slot — either a dead slot or exactly
    [slot_count] (growing the array).  The deterministic primitive that
    WAL redo replays. *)

val delete_slot : bytes -> int -> unit
val replace_at_slot : bytes -> int -> bytes -> unit

val blit_cell : bytes -> int -> bytes -> int -> int
(** [blit_cell src slot dst dst_slot] appends a copy of live cell [slot]
    of [src] to [dst]'s cell area at the reserved dead slot [dst_slot],
    without compacting; returns the copy's body offset.  For page
    rebuilds into fresh images.  @raise Invalid_argument when [slot] is
    dead or [dst] has no contiguous room. *)

val reserve_slots : bytes -> int -> unit
(** Pre-extend a freshly formatted page to [n] dead slots — page rebuilds
    (time/key splits) use this to keep surviving records at their
    original slot numbers. *)

val compact : bytes -> unit
(** Squeeze out dead-cell space; slot numbering is preserved. *)

(** {1 Space accounting} *)

val free_space : bytes -> int
(** Free bytes available counting reclaimable garbage. *)

val insert_slot : bytes -> int -> int option
(** The slot [insert] would give a cell body of this size — the first
    dead slot, else a new one at [slot_count] — if it fits (after
    compaction if needed); [None] if it does not. *)

(** {1 Iteration and statistics} *)

val live_count : bytes -> int
val iter_live : bytes -> (int -> unit) -> unit
val fold_live : bytes -> init:'a -> f:('a -> int -> 'a) -> 'a

val rfind_map_cell : bytes -> (int -> 'a option) -> 'a option
(** The first [Some] the function returns for a live cell's body offset,
    scanning the slot array from the highest slot down — on a page whose
    slots are only ever appended, newest first.  Offsets are stable only
    until the next mutating operation. *)

val utilization : bytes -> float
