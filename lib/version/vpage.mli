(** Versioned data pages: the paper's Sections 3.1–3.3 in executable form.

    A data page holds record versions.  The slot array designates the
    current version of each record; older versions occupy their own slots,
    flagged non-current, and hang off the current version through the VP
    chain, newest to oldest (Fig. 2).  A chain may continue into the
    page's historical page via the [f_vp_in_history] flag.

    This module is pure page-image manipulation: it never logs, allocates
    or touches the buffer pool.  The engine wraps each operation in the
    appropriate WAL records — and lazy timestamp propagation deliberately
    in none at all. *)

(** {1 Reading versions} *)

val find_current : bytes -> key:string -> int option
(** Slot of the current version of [key] (delete stubs count: a key whose
    newest version is a stub is currently deleted). *)

type chain_tail =
  | Chain_end
  | Chain_to_history of int  (** slot in the page's historical page *)

val chain : bytes -> slot:int -> int list * chain_tail
(** The local version chain from [slot], newest first, and where it
    continues. *)

val current_slots : bytes -> (string * int) list
(** Every chain head: (key, slot), sorted. *)

val iter_current : bytes -> (string -> int -> unit) -> unit
(** [f key slot] for every chain head, in slot order: {!current_slots}
    without the sort, for callers that index the heads. *)

val has_two_keys : bytes -> bool
(** Do two chain heads hold different keys?  Stops at the second key —
    the precondition of {!key_split}. *)

val all_versions_of : bytes -> key:string -> int list
(** Every live version of [key] in the page, regardless of chain position
    — the search mode for history pages. *)

(** A page's version directory, built in one pass over the slot array:
    its distinct keys in sorted order, and for each key the slots
    {!all_versions_of} returns for it, in the same order.  A directory
    describes one image; it is only reused for images that never change
    (immutable history pages). *)
type directory = {
  vd_keys : string array;  (** distinct keys, sorted *)
  vd_slots : int array array;  (** [vd_slots.(i)]: the versions of [vd_keys.(i)] *)
}

val directory : bytes -> directory

val directory_versions : directory -> key:string -> int array
(** [key]'s version slots (binary search); empty when absent. *)

val stamped_as_of : bytes -> int array -> asof:Imdb_clock.Timestamp.t -> int option
(** Among one key's version [slots] (as {!all_versions_of} or a
    directory lists them), counting only {e stamped} versions: the one
    with the largest start <= asof (ties — several updates by one
    transaction — resolve to the newest).  The caller interprets delete
    stubs. *)

val find_stamped_as_of : bytes -> key:string -> asof:Imdb_clock.Timestamp.t -> int option
(** {!stamped_as_of} over [all_versions_of page ~key]. *)

(** {1 Inserting versions} *)

(** A planned version insert: computed first so the engine can build the
    [Op_version_insert] log record, then applied (by the same code redo
    replays). *)
type planned_insert = {
  pi_slot : int;
  pi_body : bytes;
  pi_pred_slot : int;  (** predecessor's slot, or [Record.no_vp] *)
  pi_pred_old_flags : int;
}

val plan_insert :
  bytes ->
  key:string ->
  payload:string ->
  tid:Imdb_clock.Tid.t ->
  delete_stub:bool ->
  planned_insert option
(** [None] when the page is full (the caller splits first). *)

val plan_insert_with_pred :
  bytes ->
  pred:int option ->
  key:string ->
  payload:string ->
  tid:Imdb_clock.Tid.t ->
  delete_stub:bool ->
  planned_insert option
(** Batch variant for the ingest flush: [pred] is the chain head
    [find_current] would return, maintained by the caller across a run so
    the per-message page scan disappears.  Byte-identical plans. *)

val apply_insert : bytes -> planned_insert -> unit

(** {1 Timestamp propagation} *)

type resolution =
  | Committed of Imdb_clock.Timestamp.t
  | Active  (** still running: leave the TID in place *)
  | Unknown  (** no mapping — an integrity error outside recovery *)

val stamp :
  ?metrics:Imdb_obs.Metrics.t ->
  bytes ->
  resolve:(Imdb_clock.Tid.t -> resolution) ->
  on_stamp:(int -> Imdb_clock.Tid.t -> unit) ->
  int
(** Replace the TID with its timestamp on every version that [resolve]
    answers [Committed] for (paper stage IV), calling [on_stamp slot tid]
    after each; returns the number stamped.  The only code that writes a
    timestamp into a version: every trigger differs only in its
    [resolve] and [on_stamp].  Lazy callers mark the page dirty
    un-logged when non-zero; the eager baseline logs each patch from
    [on_stamp]. *)

val stamp_record :
  metrics:Imdb_obs.Metrics.t ->
  key:string ->
  bytes ->
  resolve:(Imdb_clock.Tid.t -> resolution) ->
  on_stamp:(int -> Imdb_clock.Tid.t -> unit) ->
  int
(** {!stamp} for the versions of [key] only: the per-record trigger,
    which runs on every write and point read (so no optional argument
    boxes a [Some] per call). *)

val has_unstamped : bytes -> bool
(** Does any version still carry a TID? *)

val has_unstamped_record : key:string -> bytes -> bool
(** Does any version of [key] still carry a TID? *)

(** {1 Time splits (Fig. 3)} *)

type split_images = {
  si_current : bytes;  (** rebuilt current page: same id, slots preserved *)
  si_history : bytes;  (** the new historical page *)
  si_current_live : int;
  si_history_live : int;
  si_copied : int;  (** versions redundantly present in both *)
}

val time_split :
  ?metrics:Imdb_obs.Metrics.t ->
  page:bytes ->
  split_time:Imdb_clock.Timestamp.t ->
  history_page_id:int ->
  unit ->
  split_images
(** Perform a time split: versions dead before the split time move to the
    history page, versions spanning it are copied redundantly to both,
    young and uncommitted versions stay current, and delete stubs older
    than the split time leave the current page.  Chains are rewired so VP
    links stay within a page or step exactly one page back.  Precondition:
    every committed version is stamped. *)

(** {1 Key splits} *)

type key_split_images = {
  ks_left : bytes;  (** original page id; keys < separator; slots kept *)
  ks_right : bytes;
  ks_separator : string;
}

val key_split :
  ?metrics:Imdb_obs.Metrics.t -> page:bytes -> right_page_id:int -> unit -> key_split_images
(** B-tree-style key split: whole chains move with their key; both halves
    share the original history chain.  @raise Invalid_argument with fewer
    than two keys. *)

(** {1 Version GC for snapshot tables} *)

val gc_versions : page:bytes -> snapshots:Imdb_clock.Timestamp.t list -> bytes * int
(** Rebuild the page keeping only versions some active snapshot can still
    see, plus chain heads and uncommitted versions; returns the image and
    the number dropped.  The snapshot-table replacement for a time split. *)
