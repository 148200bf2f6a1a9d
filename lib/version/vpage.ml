(* Versioned data pages: the paper's Sections 3.1–3.3 in executable form.

   A data page holds record *versions*.  The slot array designates the
   current version of each record (exactly what a conventional scan would
   see); older versions occupy their own slots, are flagged
   [f_non_current], and hang off the current version through the VP field
   of the 14-byte tail, newest to oldest (Fig. 2).  A chain may continue
   into the page's historical page: the last local version carries
   [f_vp_in_history] and its VP names a slot in the page referenced by the
   page header's history pointer.

   This module is pure page-image manipulation: it never logs, allocates,
   or touches the buffer pool.  The engine wraps each operation in the
   appropriate WAL records (version inserts are logged; time splits and
   key splits log the rebuilt page images as redo-only structure
   modifications; lazy timestamp propagation is deliberately not logged). *)

module P = Imdb_storage.Page
module R = Imdb_storage.Record
module Ts = Imdb_clock.Timestamp
module M = Imdb_obs.Metrics

let h_split_current_live = M.histogram_of M.h_split_current_live
let h_split_history_live = M.histogram_of M.h_split_history_live
let key_splits = M.counter_of M.key_splits
let split_copied = M.counter_of M.split_copied
let stamps_applied = M.counter_of M.stamps_applied
let time_splits = M.counter_of M.time_splits

(* ------------------------------------------------------------------ *)
(* Reading versions                                                    *)
(* ------------------------------------------------------------------ *)

(* The passes over a whole page read the slot array and the cells in
   place: [Bytes.get_uint16_le] / [get_int64_le] at known offsets of a
   cell body (layout in [Record]).  The [Page]/[Record] accessors check
   and re-derive offsets on every field, and they do not inline across
   modules, so a per-slot accessor chain costs more than the work. *)

(* Body offset of [slot]'s cell, or -1 when the slot is dead. *)
let body_at page slot =
  let off = Bytes.get_uint16_le page (Bytes.length page - 2 - (2 * slot)) in
  if off = P.dead_slot then -1 else off + 2

let flags_at page b = Char.code (Bytes.unsafe_get page b)
let key_len_at page b = Bytes.get_uint16_le page (b + 1)

(* Offset of the 14-byte versioning tail of the cell body at [b]. *)
let tail_at page b = b + 5 + key_len_at page b + Bytes.get_uint16_le page (b + 3)

(* The raw Ttime word in the tail at [tail]: a TID while negative (the
   high bit flags it), else the commit ttime.  Testing the sign needs no
   decoding, so a pass over stamped versions allocates nothing. *)
let word_of page tail = Bytes.get_int64_le page (tail + 2)
let ttime_word_at page b = word_of page (tail_at page b)
let is_tid word = word < 0L

let key_at page b = Bytes.sub_string page (b + 5) (key_len_at page b)

(* [String.compare] of the keys of the cell bodies at [b1] and [b2],
   without copying them. *)
let compare_keys_at page b1 b2 =
  let k1 = key_len_at page b1 and k2 = key_len_at page b2 in
  let rec go i =
    if i >= k1 || i >= k2 then Int.compare k1 k2
    else
      match Char.compare (Bytes.unsafe_get page (b1 + 5 + i)) (Bytes.unsafe_get page (b2 + 5 + i)) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

let key_equal_at page b key =
  let klen = String.length key in
  key_len_at page b = klen && R.key_bytes_equal page (b + 5) key klen 0

(* The next older version in the same page, or -1 where the local chain
   ends (no VP, or a VP into the history page); [tail] is [tail_at page b]. *)
let older_of page b tail =
  let vp = Bytes.get_uint16_le page tail in
  if vp = R.no_vp || flags_at page b land R.f_vp_in_history <> 0 then -1 else vp

let is_head_at page b = b >= 0 && flags_at page b land R.f_non_current = 0

(* The slot of the current version of [key], if the page has one.  Delete
   stubs count: a key whose newest version is a stub is currently deleted,
   and callers must check. *)
let find_current page ~key =
  (* runs several times per write/read on pages with up to a few hundred
     versions *)
  let n = P.slot_count page in
  let rec go slot =
    if slot >= n then None
    else
      let b = body_at page slot in
      if is_head_at page b && key_equal_at page b key then Some slot else go (slot + 1)
  in
  go 0

type chain_tail =
  | Chain_end
  | Chain_to_history of int (* slot in the page's historical page *)

(* Local version chain starting at [slot] (newest first), and where it
   continues. *)
let chain page ~slot =
  let rec go slot acc =
    let b = body_at page slot in
    let tail = tail_at page b in
    let acc = slot :: acc in
    match older_of page b tail with
    | -1 ->
        let vp = Bytes.get_uint16_le page tail in
        (List.rev acc, if vp = R.no_vp then Chain_end else Chain_to_history vp)
    | older -> go older acc
  in
  go slot []

(* Every chain head (current version), in ascending slot order: the
   roots of the chain walks below. *)
let chain_heads page =
  let heads = ref [] in
  for slot = P.slot_count page - 1 downto 0 do
    if is_head_at page (body_at page slot) then heads := slot :: !heads
  done;
  Array.of_list !heads

(* [f key slot] for every chain head, in slot order. *)
let iter_current page f =
  for slot = 0 to P.slot_count page - 1 do
    let b = body_at page slot in
    if is_head_at page b then f (key_at page b) slot
  done

(* All chain heads in the page: (key, slot) for every current version. *)
let current_slots page =
  let acc = ref [] in
  iter_current page (fun key slot -> acc := (key, slot) :: !acc);
  List.sort compare !acc

(* Do two chain heads hold different keys?  Stops at the second key: the
   test a key split needs before it can split. *)
let has_two_keys page =
  let n = P.slot_count page in
  let rec go first slot =
    slot < n
    &&
    let b = body_at page slot in
    if not (is_head_at page b) then go first (slot + 1)
    else if first < 0 then go b (slot + 1)
    else compare_keys_at page b first <> 0 || go first (slot + 1)
  in
  go (-1) 0

(* Every live version of [key] in the page, regardless of chain position —
   the search mode for history pages, where chains may have been cut by
   splits.  Returns slots. *)
let all_versions_of page ~key =
  let acc = ref [] in
  for slot = 0 to P.slot_count page - 1 do
    let b = body_at page slot in
    if b >= 0 && key_equal_at page b key then acc := slot :: !acc
  done;
  !acc

(* A page's version directory: its distinct keys, sorted, and for each
   key the slots [all_versions_of] returns for it, in the same order
   (highest slot first — the tie-break in [stamped_as_of] depends on
   it).  One pass over the slot array builds it, so reading every key of
   a page costs the page once instead of once per key. *)
type directory = { vd_keys : string array; vd_slots : int array array }

let directory page =
  (* runs of consecutive live slots holding one key, newest run first,
     each run's slots highest first.  A time split writes each chain
     contiguously, so a history page has about one run per key and the
     sort below orders keys, not versions; the manual slot loop compares
     keys in place and copies one string per run. *)
  let runs = ref [] in
  for slot = 0 to P.slot_count page - 1 do
    let b = body_at page slot in
    if b >= 0 then
      match !runs with
      | (key, slots) :: rest when key_equal_at page b key -> runs := (key, slot :: slots) :: rest
      | _ -> runs := (key_at page b, [ slot ]) :: !runs
  done;
  (* the stable sort keeps one key's runs highest first, so joining them
     keeps its slots in [all_versions_of] order *)
  let rec join = function
    | (k1, s1) :: (k2, s2) :: rest when String.equal k1 k2 -> join ((k1, s1 @ s2) :: rest)
    | run :: rest -> run :: join rest
    | [] -> []
  in
  let keyed = join (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) !runs) in
  {
    vd_keys = Array.of_list (List.map fst keyed);
    vd_slots = Array.of_list (List.map (fun (_, slots) -> Array.of_list slots) keyed);
  }

(* [key]'s version slots through the directory (binary search). *)
let directory_versions dir ~key =
  let rec go lo hi =
    if lo >= hi then [||]
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare key dir.vd_keys.(mid) in
      if c = 0 then dir.vd_slots.(mid) else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length dir.vd_keys)

(* The version visible at time [asof] among one key's version [slots]
   (as [all_versions_of] or a directory returns them), counting only
   *stamped* versions: the one with the largest start <= asof.  Among
   equal starts (several updates by one transaction) the newest is the one
   no other equal-start version points to through VP.  Returns the slot;
   the caller interprets delete stubs.  Unstamped versions are ignored —
   callers stamp committed versions first and handle own-transaction
   visibility separately. *)
let stamped_as_of page slots ~asof =
  (* array-based: one pass collects the candidates and their newest start;
     tie-breaking then touches only the (tiny) tied set instead of the old
     quadratic List.mem membership scans over rebuilt lists *)
  let n = Array.length slots in
  let ts = Array.make n Ts.zero in
  let ok = Array.make n false in
  let max_ts = ref None in
  for i = 0 to n - 1 do
    match R.in_page_timestamp page slots.(i) with
    | Some t when Ts.compare t asof <= 0 ->
        ts.(i) <- t;
        ok.(i) <- true;
        (match !max_ts with
        | Some m when Ts.compare m t >= 0 -> ()
        | Some _ | None -> max_ts := Some t)
    | Some _ | None -> ()
  done;
  match !max_ts with
  | None -> None
  | Some m ->
      (* tied versions are several updates by one transaction: the newest
         is the one no other tied version links to locally *)
      let tied i = ok.(i) && Ts.equal ts.(i) m in
      let points_at_locally j s =
        R.in_page_vp page slots.(j) = s
        && R.in_page_flags page slots.(j) land R.f_vp_in_history = 0
      in
      let result = ref None in
      let fallback = ref None in
      for i = 0 to n - 1 do
        if tied i then begin
          if !fallback = None then fallback := Some slots.(i);
          if !result = None then begin
            let pointed = ref false in
            for j = 0 to n - 1 do
              if (not !pointed) && j <> i && tied j && points_at_locally j slots.(i)
              then pointed := true
            done;
            if not !pointed then result := Some slots.(i)
          end
        end
      done;
      (match !result with Some _ as r -> r | None -> !fallback)

let find_stamped_as_of page ~key ~asof =
  stamped_as_of page (Array.of_list (all_versions_of page ~key)) ~asof

(* ------------------------------------------------------------------ *)
(* Inserting versions                                                  *)
(* ------------------------------------------------------------------ *)

(* Describe the version insert that [insert_version] would perform, so the
   engine can build the Op_version_insert log record *before* applying it.
   Returns None if the page is full (caller splits first). *)
type planned_insert = {
  pi_slot : int;
  pi_body : bytes;
  pi_pred_slot : int; (* R.no_vp if the key has no current version here *)
  pi_pred_old_flags : int;
}

(* Batch variant for the ingest flush: the caller maintains a key ->
   current-slot index across a whole run of inserts into one page, so the
   O(slots) [find_current] probe runs once per page visit instead of once
   per message.  Produces byte-identical plans to [plan_insert] given the
   predecessor [find_current] would have found. *)
let plan_insert_with_pred page ~pred ~key ~payload ~tid ~delete_stub =
  let vp, pred_flags =
    match pred with
    | Some slot -> (slot, R.in_page_flags page slot)
    | None -> (R.no_vp, 0)
  in
  let flags = if delete_stub then R.f_delete_stub else 0 in
  let body =
    R.encode
      { flags; key; payload; vp; ttime = Imdb_clock.Tid.Unstamped tid; sn = 0 }
  in
  Option.map
    (fun pi_slot ->
      { pi_slot; pi_body = body; pi_pred_slot = vp; pi_pred_old_flags = pred_flags })
    (P.insert_slot page (Bytes.length body))

let plan_insert page ~key ~payload ~tid ~delete_stub =
  plan_insert_with_pred page ~pred:(find_current page ~key) ~key ~payload ~tid
    ~delete_stub

(* Apply a planned insert: identical to Log_record's redo of
   Op_version_insert, shared here so normal execution and recovery replay
   the same code path. *)
let apply_insert page (pi : planned_insert) =
  P.insert_at_slot page pi.pi_slot pi.pi_body;
  if pi.pi_pred_slot <> R.no_vp then
    R.set_in_page_flags page pi.pi_pred_slot (pi.pi_pred_old_flags lor R.f_non_current)

(* ------------------------------------------------------------------ *)
(* Timestamp propagation                                               *)
(* ------------------------------------------------------------------ *)

type resolution =
  | Committed of Ts.t (* transaction committed with this timestamp *)
  | Active (* still running: leave the TID in place *)
  | Unknown (* no mapping: integrity error, see caller *)

(* Replace TIDs with timestamps on every version — or, unless [all],
   on every version of [key] — whose transaction has committed (paper
   stage IV).  This is the one place a version's tail gets its timestamp;
   the triggers differ only in [resolve], which maps a TID to its fate,
   and [on_stamp slot tid], run after each version is stamped (reference
   counts; the eager baseline logs the patch there).  Returns the number
   stamped: lazy callers mark the page dirty *without logging* when it is
   non-zero (the defining property of lazy timestamping).  The scope is
   a flag and a key, not a key option: the per-record trigger runs on
   every write, and an option would box its [Some] per call. *)
let stamp_scope ~metrics ~all ~key page ~resolve ~on_stamp =
  let stamped = ref 0 in
  for slot = 0 to P.slot_count page - 1 do
    let b = body_at page slot in
    if b >= 0 && (all || key_equal_at page b key) then begin
      let word = ttime_word_at page b in
      if is_tid word then
        match Imdb_clock.Tid.decode_ttime_field word with
        | Imdb_clock.Tid.Stamped _ -> ()
        | Imdb_clock.Tid.Unstamped tid -> (
            match resolve tid with
            | Committed ts ->
                R.set_in_page_ttime page slot (Imdb_clock.Tid.Stamped (Ts.ttime ts));
                R.set_in_page_sn page slot (Ts.sn ts);
                incr stamped;
                M.incr metrics stamps_applied;
                on_stamp slot tid
            | Active | Unknown -> ())
    end
  done;
  !stamped

let stamp ?(metrics = M.null) page ~resolve ~on_stamp =
  stamp_scope ~metrics ~all:true ~key:"" page ~resolve ~on_stamp

let stamp_record ~metrics ~key page ~resolve ~on_stamp =
  stamp_scope ~metrics ~all:false ~key page ~resolve ~on_stamp

(* Does any version in the page — or, unless [all], any version of [key]
   — still carry a TID?  The per-record trigger runs this on every point
   read. *)
let unstamped_in_scope ~all ~key page =
  let n = P.slot_count page in
  let rec go slot =
    slot < n
    &&
    let b = body_at page slot in
    (b >= 0 && (all || key_equal_at page b key) && is_tid (ttime_word_at page b))
    || go (slot + 1)
  in
  go 0

let has_unstamped page = unstamped_in_scope ~all:true ~key:"" page

let has_unstamped_record ~key page = unstamped_in_scope ~all:false ~key page

(* ------------------------------------------------------------------ *)
(* Time splits (Fig. 3)                                                *)
(* ------------------------------------------------------------------ *)

(* Compare two timestamps given as (ttime, SN). *)
let compare_ts tt1 sn1 tt2 sn2 =
  match Int64.compare tt1 tt2 with 0 -> Int.compare sn1 sn2 | c -> c

let sn_of page tail = Int32.to_int (Bytes.get_int32_le page (tail + 10)) land 0xFFFFFFFF

(* Rewrite the flags byte and VP of the cell body at [b], in place. *)
let set_links_at page b ~flags ~vp =
  Bytes.set_uint8 page b (flags land 0xff);
  Bytes.set_uint16_le page (tail_at page b) vp

(* A fresh image for a page rebuild: [src]'s type and table, and its
   split time and history pointer (the caller overrides what differs). *)
let fresh_image src ~page_id ~page_type ~slots =
  let img = Bytes.create (Bytes.length src) in
  P.format img ~page_id ~page_type ~table_id:(P.table_id src) ();
  P.reserve_slots img slots;
  P.set_split_time img (P.split_time src);
  P.set_history_pointer img (P.history_pointer src);
  img

(* Walk the local chain from [head], newest first: [f slot b tail older]
   for each version, with its body and tail offsets and the next older
   slot (-1 at the end). *)
let iter_chain page head f =
  let rec go slot =
    if slot >= 0 then begin
      let b = body_at page slot in
      let tail = tail_at page b in
      let older = older_of page b tail in
      f slot b tail older;
      go older
    end
  in
  go head

type split_images = {
  si_current : bytes; (* rebuilt current page: same id, slots preserved *)
  si_history : bytes; (* the new historical page *)
  si_current_live : int; (* live versions remaining current *)
  si_history_live : int;
  si_copied : int; (* versions redundantly present in both *)
}

(* Perform a time split of [page] at [split_time], producing the two new
   page images.  [history_page_id] is the id allocated for the new
   historical page.  Precondition: every committed version is stamped
   (the engine runs the VTT/PTT sweep first — "only if we know the
   timestamps for versions of records can we determine whether they
   belong on the history page").

   Each chain is classified newest first against s; the end time of a
   version is the start time of the next newer *stamped* one (a delete
   stub's start terminates its predecessor; an uncommitted newer version
   leaves the end open).  The four cases of Fig. 3:
   1. end <= s                 -> history only
   2. start <= s < end         -> both (redundant copy)
   3. start > s                -> current only
   4. uncommitted              -> current only
   Delete stubs are not data: a stub earlier than s moves to history (it
   documents the deletion and caps its predecessor's lifetime there); a
   stub at or after s stays current.

   The new historical page inherits the old page's split_time (its time
   range is [old split_time, split_time)) and the old history pointer;
   the current page gets split_time := s and history pointer := the new
   page.  Chains are rewired so that VP links stay within a page or step
   exactly one page back (deeper traversal is by page chain).

   Two walks over the chains, heads in slot order and each chain newest
   first: the first classifies every version into [current] and [hslot]
   (its history slot, numbered in walk order, or -1); the second copies
   each cell into its image(s) and patches flags and VP in place.
   Survivors keep their slot numbers on the current page. *)
let time_split ?(metrics = M.null) ~page ~split_time ~history_page_id () =
  let n = P.slot_count page in
  let heads = chain_heads page in
  let current = Array.make n false in
  let hslot = Array.make n (-1) in
  let history_live = ref 0 and current_live = ref 0 and copied = ref 0 in
  let s_tt = Ts.ttime split_time and s_sn = Ts.sn split_time in
  Array.iter
    (fun head ->
      (* [ends]: the start of the next newer stamped version, if any *)
      let ends = ref false and end_tt = ref 0L and end_sn = ref 0 in
      iter_chain page head (fun slot b tail _ ->
          let word = word_of page tail in
          if is_tid word then begin
            current.(slot) <- true;
            incr current_live
          end
          else begin
            let sn = sn_of page tail in
            let vs_s = compare_ts word sn s_tt s_sn in
            let keep, hist =
              if flags_at page b land R.f_delete_stub <> 0 then (vs_s >= 0, vs_s < 0)
              else if !ends && compare_ts !end_tt !end_sn s_tt s_sn <= 0 then (false, true)
              else (true, vs_s <= 0)
            in
            if keep then begin
              current.(slot) <- true;
              incr current_live
            end;
            if hist then begin
              hslot.(slot) <- !history_live;
              incr history_live;
              if keep then incr copied
            end;
            ends := true;
            end_tt := word;
            end_sn := sn
          end))
    heads;
  let current_img =
    fresh_image page ~page_id:(P.page_id page) ~page_type:(P.page_type page) ~slots:n
  in
  let history_img =
    fresh_image page ~page_id:history_page_id ~page_type:P.P_history ~slots:!history_live
  in
  (* Headers: history covers [old split_time, s) and chains to the old
     history page; current covers [s, inf). *)
  P.set_split_time current_img split_time;
  P.set_history_pointer current_img history_page_id;
  let no_hist flags = flags land lnot R.f_vp_in_history in
  Array.iter
    (fun head ->
      iter_chain page head (fun slot b tail older ->
          let flags = flags_at page b in
          if current.(slot) then begin
            (* the next older version lives here too (a local link), only
               on the history page, or nowhere local: deeper history is
               reached by the page chain, not VP *)
            let flags, vp =
              if older < 0 then (no_hist flags, R.no_vp)
              else if current.(older) then (no_hist flags, older)
              else (flags lor R.f_vp_in_history, hslot.(older))
            in
            set_links_at current_img (P.blit_cell page slot current_img slot) ~flags ~vp
          end;
          if hslot.(slot) >= 0 then begin
            (* an end-of-chain link into the old history page stays *)
            let flags, vp =
              if older >= 0 && hslot.(older) >= 0 then (no_hist flags, hslot.(older))
              else if older < 0 && flags land R.f_vp_in_history <> 0 then
                (flags, Bytes.get_uint16_le page tail)
              else (no_hist flags, R.no_vp)
            in
            set_links_at history_img
              (P.blit_cell page slot history_img hslot.(slot))
              ~flags ~vp
          end))
    heads;
  let images =
    {
      si_current = current_img;
      si_history = history_img;
      si_current_live = !current_live;
      si_history_live = !history_live;
      si_copied = !copied;
    }
  in
  M.incr metrics time_splits;
  M.add metrics split_copied images.si_copied;
  M.observe metrics h_split_current_live images.si_current_live;
  M.observe metrics h_split_history_live images.si_history_live;
  images

(* ------------------------------------------------------------------ *)
(* Key splits                                                          *)
(* ------------------------------------------------------------------ *)

type key_split_images = {
  ks_left : bytes; (* original page id; keys < ks_separator; slots kept *)
  ks_right : bytes; (* right_page_id; keys >= ks_separator *)
  ks_separator : string;
}

(* B-tree style key split of a (current) data page: whole chains move with
   their key.  Both halves keep the split_time and history pointer of the
   original (their shared history chain covers the combined key range;
   as-of readers filter by key).  The left half keeps original slot
   numbers; the right half is rebuilt with local chain rewiring. *)
let key_split ?(metrics = M.null) ~page ~right_page_id () =
  let heads = chain_heads page in
  let nh = Array.length heads in
  if nh < 2 then invalid_arg "Vpage.key_split: fewer than two keys";
  (* chains in key order, comparing keys in place *)
  Array.sort
    (fun h1 h2 ->
      match compare_keys_at page (body_at page h1) (body_at page h2) with
      | 0 -> Int.compare h1 h2
      | c -> c)
    heads;
  let chain_bytes = Array.make nh 0 and chain_len = Array.make nh 0 in
  Array.iteri
    (fun i head ->
      iter_chain page head (fun _ b _ _ ->
          chain_bytes.(i) <- chain_bytes.(i) + Bytes.get_uint16_le page (b - 2);
          chain_len.(i) <- chain_len.(i) + 1))
    heads;
  let total_bytes = Array.fold_left ( + ) 0 chain_bytes in
  (* the separator: the first key after the first chain whose preceding
     chains (not counting the first) reach half the bytes, else the last *)
  let rec pick i acc =
    if i = nh - 1 || acc >= total_bytes / 2 then i else pick (i + 1) (acc + chain_bytes.(i))
  in
  let sep_body = body_at page heads.(pick 1 0) in
  let goes_left i = compare_keys_at page (body_at page heads.(i)) sep_body < 0 in
  let right_slots = ref 0 in
  Array.iteri (fun i len -> if not (goes_left i) then right_slots := !right_slots + len) chain_len;
  let left_img =
    fresh_image page ~page_id:(P.page_id page) ~page_type:(P.page_type page)
      ~slots:(P.slot_count page)
  in
  let right_img =
    fresh_image page ~page_id:right_page_id ~page_type:(P.page_type page) ~slots:!right_slots
  in
  let next_right = ref 0 in
  Array.iteri
    (fun i head ->
      if goes_left i then
        (* stays left at original slots; links unchanged *)
        iter_chain page head (fun slot _ _ _ -> ignore (P.blit_cell page slot left_img slot))
      else
        (* moves right to consecutive fresh slots: each local link names
           the next one; a link into the shared history page keeps its
           slot value *)
        iter_chain page head (fun slot _ _ older ->
            let r = !next_right in
            incr next_right;
            let rb = P.blit_cell page slot right_img r in
            if older >= 0 then Bytes.set_uint16_le right_img (tail_at right_img rb) (r + 1)))
    heads;
  M.incr metrics key_splits;
  { ks_left = left_img; ks_right = right_img; ks_separator = key_at page sep_body }

(* ------------------------------------------------------------------ *)
(* Version GC for snapshot tables                                      *)
(* ------------------------------------------------------------------ *)

(* Rebuild the page keeping only versions some *active snapshot* can still
   see: the chain head (the current state), every uncommitted version, and
   for each active snapshot time t the newest version with start <= t that
   is still alive at t.  Everything else is garbage — the paper: "versions
   earlier than the version seen by O are garbage collected", generalized
   to the exact visible set so a single hot record cannot overflow its
   page while an old reader is pinned.  Slots of survivors are preserved
   and consecutive survivors are rewired into a chain.  Returns the
   rebuilt image and the number of versions dropped. *)
let gc_versions ~page ~snapshots =
  let img =
    fresh_image page ~page_id:(P.page_id page) ~page_type:(P.page_type page)
      ~slots:(P.slot_count page)
  in
  P.set_history_pointer img P.no_page;
  let dropped = ref 0 in
  Array.iter
    (fun head ->
      (* [end_*]: the start of the next newer stamped version, if any;
         [prev]: the body offset of the previous survivor's copy *)
      let bound = ref false and end_tt = ref 0L and end_sn = ref 0 in
      let prev = ref (-1) in
      iter_chain page head (fun slot b tail _ ->
          let word = word_of page tail in
          let keep =
            is_tid word
            ||
            let sn = sn_of page tail in
            let alive_at t =
              let t_tt = Ts.ttime t and t_sn = Ts.sn t in
              compare_ts word sn t_tt t_sn <= 0
              && ((not !bound) || compare_ts !end_tt !end_sn t_tt t_sn > 0)
            in
            let keep = (not !bound) || List.exists alive_at snapshots in
            bound := true;
            end_tt := word;
            end_sn := sn;
            keep
          in
          if not keep then incr dropped
          else begin
            if !prev >= 0 then Bytes.set_uint16_le img (tail_at img !prev) slot;
            let copy = P.blit_cell page slot img slot in
            set_links_at img copy
              ~flags:(flags_at page b land lnot R.f_vp_in_history)
              ~vp:R.no_vp;
            prev := copy
          end))
    (chain_heads page);
  (img, !dropped)
