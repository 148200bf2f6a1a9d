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
   modifications; timestamp propagation is deliberately not logged). *)

module P = Imdb_storage.Page
module R = Imdb_storage.Record
module Ts = Imdb_clock.Timestamp
module M = Imdb_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Reading versions                                                    *)
(* ------------------------------------------------------------------ *)

(* The slot of the current version of [key], if the page has one.  Delete
   stubs count: a key whose newest version is a stub is currently deleted,
   and callers must check. *)
let find_current page ~key =
  (* manual slot-array loop: this runs several times per write/read on
     pages with up to a few hundred versions *)
  let psize = Bytes.length page in
  let n = P.slot_count page in
  let klen = String.length key in
  let rec go slot =
    if slot >= n then None
    else
      let off = Bytes.get_uint16_le page (psize - 2 - (2 * slot)) in
      if
        off <> P.dead_slot
        && Char.code (Bytes.unsafe_get page (off + 2)) land R.f_non_current = 0
        && Bytes.get_uint16_le page (off + 3) = klen
        && R.key_bytes_equal page (off + 7) key klen 0
      then Some slot
      else go (slot + 1)
  in
  go 0

type chain_tail =
  | Chain_end
  | Chain_to_history of int (* slot in the page's historical page *)

(* Local version chain starting at [slot] (newest first), and where it
   continues. *)
let chain page ~slot =
  let rec go slot acc =
    let acc = slot :: acc in
    let vp = R.in_page_vp page slot in
    if vp = R.no_vp then (List.rev acc, Chain_end)
    else if R.in_page_flags page slot land R.f_vp_in_history <> 0 then
      (List.rev acc, Chain_to_history vp)
    else go vp acc
  in
  go slot []

(* Count-then-fill into an array: the chain-collection passes below run
   on every split/GC over pages with hundreds of versions, so they avoid
   building intermediate lists just to sort them. *)
let live_matching page pred =
  let count = ref 0 in
  P.iter_live page (fun slot -> if pred slot then incr count);
  let arr = Array.make !count 0 in
  let i = ref 0 in
  P.iter_live page (fun slot ->
      if pred slot then begin
        arr.(!i) <- slot;
        incr i
      end);
  arr

let is_chain_head page slot = R.in_page_flags page slot land R.f_non_current = 0

(* All chain heads in the page: (key, slot) for every current version. *)
let current_slots page =
  let heads = live_matching page (is_chain_head page) in
  let arr = Array.map (fun slot -> (R.in_page_key page slot, slot)) heads in
  Array.sort compare arr;
  Array.to_list arr

(* Every live version of [key] in the page, regardless of chain position —
   the search mode for history pages, where chains may have been cut by
   splits.  Returns slots. *)
let all_versions_of page ~key =
  let psize = Bytes.length page in
  let n = P.slot_count page in
  let klen = String.length key in
  let acc = ref [] in
  for slot = 0 to n - 1 do
    let off = Bytes.get_uint16_le page (psize - 2 - (2 * slot)) in
    if
      off <> P.dead_slot
      && Bytes.get_uint16_le page (off + 3) = klen
      && R.key_bytes_equal page (off + 7) key klen 0
    then acc := slot :: !acc
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
  let psize = Bytes.length page in
  let runs = ref [] in
  for slot = 0 to P.slot_count page - 1 do
    let off = Bytes.get_uint16_le page (psize - 2 - (2 * slot)) in
    if off <> P.dead_slot then begin
      let klen = Bytes.get_uint16_le page (off + 3) in
      match !runs with
      | (key, slots) :: rest
        when String.length key = klen && R.key_bytes_equal page (off + 7) key klen 0 ->
          runs := (key, slot :: slots) :: rest
      | _ -> runs := (Bytes.sub_string page (off + 7) klen, [ slot ]) :: !runs
    end
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
  if not (P.fits page (Bytes.length body)) then None
  else
    Some
      {
        pi_slot = P.choose_insert_slot page;
        pi_body = body;
        pi_pred_slot = vp;
        pi_pred_old_flags = pred_flags;
      }

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

(* Replace TIDs with timestamps on every version whose transaction has
   committed (paper stage IV).  [resolve] consults the VTT/PTT;
   [on_stamp tid] lets the caller decrement reference counts.  Returns the
   number of versions stamped — when non-zero the caller marks the page
   dirty *without logging* (the defining property of lazy timestamping). *)
let stamp_committed ?(metrics = M.null) page ~resolve ~on_stamp =
  let stamped = ref 0 in
  P.iter_live page (fun slot ->
      match R.in_page_ttime page slot with
      | Imdb_clock.Tid.Stamped _ -> ()
      | Imdb_clock.Tid.Unstamped tid -> (
          match resolve tid with
          | Committed ts ->
              R.set_in_page_ttime page slot (Imdb_clock.Tid.Stamped (Ts.ttime ts));
              R.set_in_page_sn page slot (Ts.sn ts);
              incr stamped;
              M.incr metrics M.stamps_applied;
              on_stamp tid
          | Active | Unknown -> ()));
  !stamped

(* Stamp only the versions of one record — the paper's per-record triggers
   (stage IV: reading or updating a non-timestamped version timestamps
   that record's versions).  Cheaper than a page sweep on the write path. *)
let stamp_versions_of ?(metrics = M.null) page ~key ~resolve ~on_stamp =
  let stamped = ref 0 in
  P.iter_live page (fun slot ->
      if R.in_page_key_matches page slot key then
        match R.in_page_ttime page slot with
        | Imdb_clock.Tid.Stamped _ -> ()
        | Imdb_clock.Tid.Unstamped tid -> (
            match resolve tid with
            | Committed ts ->
                R.set_in_page_ttime page slot (Imdb_clock.Tid.Stamped (Ts.ttime ts));
                R.set_in_page_sn page slot (Ts.sn ts);
                incr stamped;
                M.incr metrics M.stamps_applied;
                on_stamp tid
            | Active | Unknown -> ()));
  !stamped

(* Does the record [key] have any unstamped version in this page? *)
let key_has_unstamped page ~key =
  let psize = Bytes.length page in
  let n = P.slot_count page in
  let klen = String.length key in
  let rec go slot =
    if slot >= n then false
    else
      let off = Bytes.get_uint16_le page (psize - 2 - (2 * slot)) in
      if
        off <> P.dead_slot
        && Bytes.get_uint16_le page (off + 3) = klen
        && R.key_bytes_equal page (off + 7) key klen 0
        &&
        (* unstamped = the TID flag (high bit of the 8-byte Ttime field) *)
        (match R.in_page_ttime page slot with
        | Imdb_clock.Tid.Unstamped _ -> true
        | Imdb_clock.Tid.Stamped _ -> false)
      then true
      else go (slot + 1)
  in
  go 0

(* Is any version in the page still carrying a TID? *)
let has_unstamped page =
  let found = ref false in
  P.iter_live page (fun slot ->
      match R.in_page_ttime page slot with
      | Imdb_clock.Tid.Unstamped _ -> found := true
      | Imdb_clock.Tid.Stamped _ -> ());
  !found

(* ------------------------------------------------------------------ *)
(* Time splits (Fig. 3)                                                *)
(* ------------------------------------------------------------------ *)

type version_info = {
  vi_slot : int;
  vi_key : string;
  vi_flags : int;
  vi_start : [ `Stamped of Ts.t | `Unstamped of Imdb_clock.Tid.t ];
  vi_vp : int;
  vi_cell : bytes;
}

let info_of page slot =
  let start =
    match R.in_page_ttime page slot with
    | Imdb_clock.Tid.Stamped ms ->
        `Stamped (Ts.make ~ttime:ms ~sn:(R.in_page_sn page slot))
    | Imdb_clock.Tid.Unstamped tid -> `Unstamped tid
  in
  {
    vi_slot = slot;
    vi_key = R.in_page_key page slot;
    vi_flags = R.in_page_flags page slot;
    vi_start = start;
    vi_vp = R.in_page_vp page slot;
    vi_cell = P.read_cell page slot;
  }

let is_stub vi = vi.vi_flags land R.f_delete_stub <> 0
let vp_hist vi = vi.vi_flags land R.f_vp_in_history <> 0

(* Chains of the whole page: each is newest-first; heads are the
   slot-array-visible versions.  Heads are gathered and sorted in an
   array (count-then-fill) rather than consed and list-sorted. *)
let collect_chains page =
  let heads = live_matching page (is_chain_head page) in
  Array.sort compare heads;
  Array.fold_right
    (fun head acc ->
      let slots, _tail = chain page ~slot:head in
      List.map (info_of page) slots :: acc)
    heads []

type placement = Current_only | Both | History_only

(* Classify a chain's versions against split time [s].  [chain_infos] is
   newest-first; the end time of each version is the start time of the
   next newer one (a delete stub's start terminates its predecessor; an
   uncommitted newer version leaves the end open).

   The four cases of Fig. 3:
   1. end <= s                 -> history only
   2. start <= s < end         -> both (redundant copy)
   3. start > s                -> current only
   4. uncommitted              -> current only
   Delete stubs are not data: a stub earlier than s moves to history (it
   documents the deletion and caps its predecessor's lifetime there); a
   stub at or after s stays current. *)
let classify_chain ~split_time:s chain_infos =
  let rec go newer_start = function
    | [] -> []
    | vi :: older ->
        let placement, own_start =
          match vi.vi_start with
          | `Unstamped _ -> (Current_only, None)
          | `Stamped start ->
              let p =
                if is_stub vi then if Ts.compare start s < 0 then History_only else Current_only
                else
                  let end_le_s =
                    match newer_start with
                    | Some e -> Ts.compare e s <= 0
                    | None -> false (* open-ended: alive at s *)
                  in
                  if end_le_s then History_only
                  else if Ts.compare start s <= 0 then Both
                  else Current_only
              in
              (p, Some start)
        in
        (* an uncommitted newer version leaves its predecessor's end open,
           so propagate the previous bound in that case *)
        let next_bound = match own_start with Some st -> Some st | None -> newer_start in
        (vi, placement) :: go next_bound older
  in
  go None chain_infos

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

   The new historical page inherits the old page's split_time (its time
   range is [old split_time, split_time)) and the old history pointer;
   the current page gets split_time := s and history pointer := the new
   page.  Chains are rewired so that VP links stay within a page or step
   exactly one page back (deeper traversal is by page chain). *)
let time_split ?(metrics = M.null) ~page ~split_time ~history_page_id () =
  let page_size = Bytes.length page in
  let chains = List.map (classify_chain ~split_time) (collect_chains page) in
  let current_img = Bytes.create page_size in
  P.format current_img ~page_id:(P.page_id page) ~page_type:(P.page_type page)
    ~table_id:(P.table_id page) ();
  P.reserve_slots current_img (P.slot_count page);
  let history_img = Bytes.create page_size in
  P.format history_img ~page_id:history_page_id ~page_type:P.P_history
    ~table_id:(P.table_id page) ();
  (* Headers: history covers [old split_time, s) and chains to the old
     history page; current covers [s, inf). *)
  P.set_split_time history_img (P.split_time page);
  P.set_history_pointer history_img (P.history_pointer page);
  P.set_split_time current_img split_time;
  P.set_history_pointer current_img history_page_id;
  let copied = ref 0 in
  (* First pass: place history copies and remember their slots. *)
  let history_slot : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun chain ->
      List.iter
        (fun (vi, placement) ->
          match placement with
          | History_only | Both ->
              (* strip chain flags for now; second pass rewires *)
              let flags = vi.vi_flags land lnot R.f_vp_in_history in
              let cell = R.with_links vi.vi_cell ~flags ~vp:R.no_vp in
              let slot = P.insert history_img cell in
              Hashtbl.replace history_slot vi.vi_slot slot;
              if placement = Both then incr copied
          | Current_only -> ())
        chain)
    chains;
  (* Second pass: place current survivors at their original slots and
     rewire every chain in both images. *)
  List.iter
    (fun chain ->
      (* link each element to the next older one, per image *)
      let rec wire = function
        | [] -> ()
        | (vi, placement) :: older ->
            let next_older = match older with [] -> None | (o, p) :: _ -> Some (o, p) in
            (* current image *)
            (match placement with
            | Current_only | Both ->
                let vp, flags =
                  match next_older with
                  | Some (o, (Current_only | Both)) ->
                      (* older version also lives here: local link.  (Both
                         versions keep their original slots.) *)
                      (o.vi_slot, vi.vi_flags land lnot R.f_vp_in_history)
                  | Some (o, History_only) -> (
                      match Hashtbl.find_opt history_slot o.vi_slot with
                      | Some hs -> (hs, vi.vi_flags lor R.f_vp_in_history)
                      | None -> (R.no_vp, vi.vi_flags land lnot R.f_vp_in_history))
                  | None ->
                      (* end of local chain; deeper history is reached by
                         the page chain, not VP *)
                      (R.no_vp, vi.vi_flags land lnot R.f_vp_in_history)
                in
                let cell = R.with_links vi.vi_cell ~flags ~vp in
                P.insert_at_slot current_img vi.vi_slot cell
            | History_only -> ());
            (* history image *)
            (match Hashtbl.find_opt history_slot vi.vi_slot with
            | None -> ()
            | Some my_hs ->
                let vp, flags =
                  match next_older with
                  | Some (o, _) -> (
                      match Hashtbl.find_opt history_slot o.vi_slot with
                      | Some ohs -> (ohs, vi.vi_flags land lnot R.f_vp_in_history)
                      | None ->
                          (* next older lives beyond the old history page
                             boundary; it was already linked via
                             f_vp_in_history in the original page *)
                          if vp_hist vi then (vi.vi_vp, vi.vi_flags)
                          else (R.no_vp, vi.vi_flags land lnot R.f_vp_in_history))
                  | None ->
                      if vp_hist vi then (vi.vi_vp, vi.vi_flags)
                      else (R.no_vp, vi.vi_flags land lnot R.f_vp_in_history)
                in
                P.patch_cell history_img my_hs ~at:0
                  ~src:(Bytes.make 1 (Char.chr (flags land 0xff)));
                let k = Imdb_util.Codec.get_u16 history_img (P.cell_body_offset history_img my_hs + 1) in
                let p = Imdb_util.Codec.get_u16 history_img (P.cell_body_offset history_img my_hs + 3) in
                let vp_b = Bytes.create 2 in
                Imdb_util.Codec.set_u16 vp_b 0 vp;
                P.patch_cell history_img my_hs ~at:(5 + k + p) ~src:vp_b);
            wire older
      in
      wire chain)
    chains;
  let images =
    {
      si_current = current_img;
      si_history = history_img;
      si_current_live = P.live_count current_img;
      si_history_live = P.live_count history_img;
      si_copied = !copied;
    }
  in
  M.incr metrics M.time_splits;
  M.incr ~by:images.si_copied metrics M.split_copied;
  M.observe metrics M.h_split_current_live images.si_current_live;
  M.observe metrics M.h_split_history_live images.si_history_live;
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
  let page_size = Bytes.length page in
  let chains = collect_chains page in
  if List.length chains < 2 then invalid_arg "Vpage.key_split: fewer than two keys";
  let keyed =
    List.map (fun c -> ((List.hd c).vi_key, c)) chains |> List.sort compare
  in
  let total_bytes =
    List.fold_left
      (fun acc (_, c) ->
        acc + List.fold_left (fun a vi -> a + Bytes.length vi.vi_cell) 0 c)
      0 keyed
  in
  (* choose the first key whose cumulative size crosses half *)
  let rec pick acc = function
    | [ (k, _) ] -> k
    | (k, c) :: rest ->
        if acc >= total_bytes / 2 then k
        else
          pick (acc + List.fold_left (fun a vi -> a + Bytes.length vi.vi_cell) 0 c) rest
    | [] -> assert false
  in
  let separator = pick 0 (List.tl keyed) in
  (* keys < separator stay left; the first chain always stays left *)
  let left_img = Bytes.create page_size in
  P.format left_img ~page_id:(P.page_id page) ~page_type:(P.page_type page)
    ~table_id:(P.table_id page) ();
  P.reserve_slots left_img (P.slot_count page);
  let right_img = Bytes.create page_size in
  P.format right_img ~page_id:right_page_id ~page_type:(P.page_type page)
    ~table_id:(P.table_id page) ();
  List.iter
    (fun img ->
      P.set_split_time img (P.split_time page);
      P.set_history_pointer img (P.history_pointer page))
    [ left_img; right_img ];
  List.iter
    (fun (key, chain) ->
      if String.compare key separator < 0 then
        (* stays left at original slots; links unchanged *)
        List.iter (fun vi -> P.insert_at_slot left_img vi.vi_slot vi.vi_cell) chain
      else begin
        (* moves right: fresh slots, rewire local links *)
        let slots =
          List.map
            (fun vi ->
              (* insert with placeholder vp; fix after all allocated *)
              let s = P.insert right_img vi.vi_cell in
              (vi, s))
            chain
        in
        let rec rewire = function
          | [] -> ()
          | (vi, s) :: older ->
              (match older with
              | (_, os) :: _ when not (vp_hist vi) ->
                  R.set_in_page_vp right_img s os
              | _ ->
                  (* last local element: history links keep their slot
                     value (same shared history page); locals terminate *)
                  if not (vp_hist vi) then R.set_in_page_vp right_img s R.no_vp);
              rewire older
        in
        rewire slots
      end)
    keyed;
  M.incr metrics M.key_splits;
  { ks_left = left_img; ks_right = right_img; ks_separator = separator }

(* ------------------------------------------------------------------ *)
(* Version GC for snapshot tables                                      *)
(* ------------------------------------------------------------------ *)

(* Rebuild the page keeping only versions some *active snapshot* can still
   see: the chain head (the current state), every uncommitted version, and
   for each active snapshot time t the newest version with start <= t that
   is still alive at t.  Everything else is garbage — the paper: "versions
   earlier than the version seen by O are garbage collected", generalized
   to the exact visible set so a single hot record cannot overflow its
   page while an old reader is pinned.  Slots of survivors are preserved.
   Returns the rebuilt image and the number of versions dropped. *)
let gc_versions ~page ~snapshots =
  let chains = collect_chains page in
  let img = Bytes.create (Bytes.length page) in
  P.format img ~page_id:(P.page_id page) ~page_type:(P.page_type page)
    ~table_id:(P.table_id page) ();
  P.reserve_slots img (P.slot_count page);
  P.set_split_time img (P.split_time page);
  let dropped = ref 0 in
  List.iter
    (fun chain ->
      (* compute each version's [start, end) and keep decision *)
      let rec decide newer_start = function
        | [] -> []
        | vi :: older ->
            let keep, own_start =
              match vi.vi_start with
              | `Unstamped _ -> (true, None)
              | `Stamped start ->
                  let is_head = newer_start = None in
                  let visible_to_some_snapshot =
                    List.exists
                      (fun t ->
                        Ts.compare start t <= 0
                        &&
                        match newer_start with
                        | None -> true (* open-ended: alive at any t >= start *)
                        | Some e -> Ts.compare t e < 0)
                      snapshots
                  in
                  (is_head || visible_to_some_snapshot, Some start)
            in
            let next_bound =
              match own_start with Some st -> Some st | None -> newer_start
            in
            (vi, keep) :: decide next_bound older
      in
      let decided = decide None chain in
      (* place survivors at their original slots, rewiring consecutive
         survivors into a chain *)
      let survivors = List.filter_map (fun (vi, k) -> if k then Some vi else None) decided in
      dropped := !dropped + (List.length decided - List.length survivors);
      let rec place = function
        | [] -> ()
        | vi :: older ->
            let vp, flags =
              match older with
              | o :: _ -> (o.vi_slot, vi.vi_flags land lnot R.f_vp_in_history)
              | [] -> (R.no_vp, vi.vi_flags land lnot R.f_vp_in_history)
            in
            P.insert_at_slot img vi.vi_slot (R.with_links vi.vi_cell ~flags ~vp);
            place older
      in
      place survivors)
    chains;
  (img, !dropped)
