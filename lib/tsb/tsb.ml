(* Time-split B-tree index (Lomet & Salzberg, SIGMOD '89) — the temporal
   index the paper names as its most important next step (Section 7.2):
   "once we implement the TSB-tree ... we will index directly to the
   appropriate page, avoiding the cost of searching down the page time
   split chain".

   We index the *historical* pages produced by data-page time splits.
   Current pages are reached through the table's key router, exactly as
   Immortal DB keeps using the B-tree for current data; an AS OF query
   first probes the current page, and only when the requested time
   precedes the page's split time does it consult this index — which then
   lands on the right historical page in O(depth) instead of walking the
   whole chain.

   Every indexed page owns a rectangle in (key × time) space:

       [key_low, key_high)  ×  [t_low, t_high)

   with key_high = None meaning +inf.  Rectangles of distinct history
   pages are disjoint by construction (time splits partition time within
   a key range; key splits partition keys).  Index nodes split like TSB
   index nodes: by time when the node spans multiple time boundaries
   (entries straddling the split are posted redundantly to both halves,
   the TSB-tree's signature redundancy), otherwise by key.

   All structure modifications are redo-only logged, like other splits. *)

module P = Imdb_storage.Page
module Ts = Imdb_clock.Timestamp

type rect = {
  key_low : string;
  key_high : string option; (* None = +inf *)
  t_low : Ts.t;
  t_high : Ts.t; (* Ts.infinity = open *)
}

let rect_contains r ~key ~ts =
  String.compare key r.key_low >= 0
  && (match r.key_high with None -> true | Some h -> String.compare key h < 0)
  && Ts.compare ts r.t_low >= 0
  && Ts.compare ts r.t_high < 0

let rects_overlap a b =
  (match a.key_high with None -> true | Some h -> String.compare b.key_low h < 0)
  && (match b.key_high with None -> true | Some h -> String.compare a.key_low h < 0)
  && Ts.compare a.t_low b.t_high < 0
  && Ts.compare b.t_low a.t_high < 0

let pp_rect ppf r =
  Fmt.pf ppf "[%S,%s) x [%a,%s)" r.key_low
    (match r.key_high with None -> "+inf" | Some h -> Printf.sprintf "%S" h)
    Ts.pp r.t_low
    (if Ts.equal r.t_high Ts.infinity then "+inf" else Ts.to_string r.t_high)

type entry = { rect : rect; child : int }

(* --- index cells, read in place -------------------------------------------

   An index cell holds one entry:

     u16 n, n bytes    key_low
     u8                1 when key_high is finite, else 0
     u16 m, m bytes    key_high, only when finite
     12 bytes          t_low   (Timestamp's layout: i64 ttime, u32 sn)
     12 bytes          t_high
     u32               child page id

   Search and insertion read the fields where they lie, through the
   accessors below over the cell's body offset [o] in its page: keys are
   compared byte by byte against a string, timestamps as raw
   (ttime, sn) words, the child as a u32.  Only [split_node] and
   [check_invariants] decode whole entries. *)

let ts_size = Ts.on_disk_size
let key_low_len page o = Bytes.get_uint16_le page o

(* Offset of the u8 that says whether key_high is finite. *)
let high_tag page o = o + 2 + key_low_len page o

let t_low_at page o =
  let tag = high_tag page o in
  if Bytes.get_uint8 page tag = 1 then tag + 3 + Bytes.get_uint16_le page (tag + 1)
  else tag + 1

(* One past the cell's last byte. *)
let cell_end page o = t_low_at page o + (2 * ts_size) + 4

let child_at page o =
  Int32.to_int (Bytes.get_int32_le page (cell_end page o - 4)) land 0xffffffff

(* [String.compare] of the [len] bytes at [pos] with [s]. *)
let compare_at page pos len s =
  let slen = String.length s in
  let rec go i =
    if i = len || i = slen then Int.compare len slen
    else
      match Char.compare (Bytes.get page (pos + i)) s.[i] with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* key_low, and key_high with +inf above every key, compared with [k]. *)
let compare_key_low page o k = compare_at page (o + 2) (key_low_len page o) k

let compare_key_high page o k =
  let tag = high_tag page o in
  if Bytes.get_uint8 page tag = 1 then
    compare_at page (tag + 3) (Bytes.get_uint16_le page (tag + 1)) k
  else 1

(* The timestamp stored at [pos] compared with [ts]. *)
let compare_ts_at page pos ts =
  match Int64.compare (Bytes.get_int64_le page pos) (Ts.ttime ts) with
  | 0 ->
      let sn = Int32.to_int (Bytes.get_int32_le page (pos + 8)) land 0xffffffff in
      Int.compare sn (Ts.sn ts)
  | c -> c

(* [rect_contains] in place. *)
let cell_contains page o ~key ~ts =
  compare_key_low page o key <= 0
  && compare_key_high page o key > 0
  &&
  let tl = t_low_at page o in
  compare_ts_at page tl ts <= 0 && compare_ts_at page (tl + ts_size) ts > 0

(* [rects_overlap] of the cell's rectangle and [r], in place. *)
let cell_overlaps page o r =
  compare_key_high page o r.key_low > 0
  && (match r.key_high with None -> true | Some h -> compare_key_low page o h < 0)
  &&
  let tl = t_low_at page o in
  compare_ts_at page tl r.t_high < 0 && compare_ts_at page (tl + ts_size) r.t_low > 0

(* Whether the cell's bytes are exactly [cell]'s. *)
let cell_equals page o cell =
  let len = Bytes.length cell in
  cell_end page o - o = len
  &&
  let rec go i = i = len || (Bytes.get page (o + i) = Bytes.get cell i && go (i + 1)) in
  go 0

let decode_rect page o =
  let tag = high_tag page o and tl = t_low_at page o in
  {
    key_low = Bytes.sub_string page (o + 2) (key_low_len page o);
    key_high =
      (if Bytes.get_uint8 page tag = 1 then
         Some (Bytes.sub_string page (tag + 3) (Bytes.get_uint16_le page (tag + 1)))
       else None);
    t_low = Ts.read page tl;
    t_high = Ts.read page (tl + ts_size);
  }

let decode_entry page o = { rect = decode_rect page o; child = child_at page o }

let encode_entry e =
  let r = e.rect in
  let n = String.length r.key_low in
  let tl = 2 + n + match r.key_high with None -> 1 | Some h -> 3 + String.length h in
  let b = Bytes.create (tl + (2 * ts_size) + 4) in
  Bytes.set_uint16_le b 0 n;
  Bytes.blit_string r.key_low 0 b 2 n;
  (match r.key_high with
  | None -> Bytes.set_uint8 b (2 + n) 0
  | Some h ->
      Bytes.set_uint8 b (2 + n) 1;
      Bytes.set_uint16_le b (3 + n) (String.length h);
      Bytes.blit_string h 0 b (5 + n) (String.length h));
  Ts.write b tl r.t_low;
  Ts.write b (tl + ts_size) r.t_high;
  Bytes.set_int32_le b (tl + (2 * ts_size)) (Int32.of_int e.child);
  b

(* Every entry of a node, decoded, in *reverse* slot order: the order
   [split_node] re-inserts them in, which its page images depend on. *)
let decode_node page =
  P.fold_live page ~init:[] ~f:(fun acc slot ->
      decode_entry page (P.cell_body_offset page slot) :: acc)

(* --- tree ---------------------------------------------------------------- *)

type io = {
  exec : Imdb_buffer.Buffer_pool.frame -> Imdb_wal.Log_record.page_op -> unit;
      (** redo-only log + apply + mark dirty *)
  alloc : level:int -> int; (** fresh P_tsb_index page *)
}

type t = { pool : Imdb_buffer.Buffer_pool.t; io : io; root : int; table_id : int }

let attach ~pool ~io ~root ~table_id = { pool; io; root; table_id }

let create ~pool ~io ~table_id =
  let root = io.alloc ~level:0 in
  attach ~pool ~io ~root ~table_id

let root t = t.root
let is_leaf page = P.level page = 0

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* The historical page whose rectangle contains (key, ts), if any.  Any
   containing cell will do: a leaf's rectangles are disjoint apart from
   exact duplicates left by redundant posting (the same child), and an
   internal node's are disjoint. *)
let find t ~key ~ts =
  let rec go page_id =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        match
          P.rfind_map_cell page (fun o ->
              if cell_contains page o ~key ~ts then Some (child_at page o) else None)
        with
        | None -> None
        | Some child -> if is_leaf page then Some child else go child)
  in
  go t.root

(* ------------------------------------------------------------------ *)
(* Insertion with node splitting                                       *)
(* ------------------------------------------------------------------ *)

(* Split an overfull index node.

   Leaf index nodes hold entries for *historical data pages*, which are
   immutable: entries straddling the split line may safely be posted
   redundantly to both halves (the TSB-tree's signature redundancy).

   Internal nodes hold entries for *index nodes*, which are mutable (they
   split later); a redundantly posted child would be reachable from two
   parents and a later split of it could only update one of them.  So
   internal splits must choose a *clean guillotine line* that no child
   rectangle strictly spans.  Such a line always exists: an internal
   node's children arise from recursive guillotine splits of its region,
   whose first cut spans the whole region and is never crossed by later
   descendants.

   Prefers time splits (migrating old entries away) over key splits, as
   the TSB-tree does.  Returns (left_rect_hint, right_rect_hint, right_id). *)
let split_node t fr ~node_rect =
  let page = Imdb_buffer.Buffer_pool.bytes fr in
  let page_id = P.page_id page in
  let lvl = P.level page in
  let entries = decode_node page in
  let right_id = t.io.alloc ~level:lvl in
  let clean_required = lvl > 0 in
  let time_spans b e =
    Ts.compare e.rect.t_low b < 0 && Ts.compare e.rect.t_high b > 0
  in
  let key_spans b e =
    String.compare e.rect.key_low b < 0
    && match e.rect.key_high with None -> true | Some h -> String.compare h b > 0
  in
  let time_bounds =
    List.concat_map (fun e -> [ e.rect.t_low; e.rect.t_high ]) entries
    |> List.filter (fun b ->
           Ts.compare b node_rect.t_low > 0 && Ts.compare b node_rect.t_high < 0)
    |> List.filter (fun b ->
           (not clean_required) || not (List.exists (time_spans b) entries))
    |> List.sort_uniq Ts.compare
  in
  let median l = List.nth l (List.length l / 2) in
  let left_es, right_es, left_rect, right_rect =
    match time_bounds with
    | _ :: _ ->
        let tmid = median time_bounds in
        ( List.filter (fun e -> Ts.compare e.rect.t_low tmid < 0) entries,
          List.filter (fun e -> Ts.compare e.rect.t_high tmid > 0) entries,
          { node_rect with t_high = tmid },
          { node_rect with t_low = tmid } )
    | [] -> (
        let key_bounds =
          List.map (fun e -> e.rect.key_low) entries
          |> List.filter (fun k -> String.compare k node_rect.key_low > 0)
          |> List.filter (fun b ->
                 (not clean_required) || not (List.exists (key_spans b) entries))
          |> List.sort_uniq String.compare
        in
        match key_bounds with
        | [] ->
            failwith
              (Printf.sprintf "Tsb: index node %d cannot be split (degenerate region)"
                 page_id)
        | _ ->
            let kmid = median key_bounds in
            ( List.filter (fun e -> String.compare e.rect.key_low kmid < 0) entries,
              List.filter
                (fun e ->
                  match e.rect.key_high with
                  | None -> true
                  | Some h -> String.compare h kmid > 0)
                entries,
              { node_rect with key_high = Some kmid },
              { node_rect with key_low = kmid } ))
  in
  let rebuild img id es =
    P.format img ~page_id:id ~page_type:P.P_tsb_index ~table_id:t.table_id ~level:lvl ();
    List.iter (fun e -> ignore (P.insert img (encode_entry e))) es
  in
  let left_img = Bytes.copy page in
  rebuild left_img page_id left_es;
  let right_fr = Imdb_buffer.Buffer_pool.pin t.pool right_id in
  Fun.protect
    ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool right_fr)
    (fun () ->
      let right_img = Bytes.copy (Imdb_buffer.Buffer_pool.bytes right_fr) in
      rebuild right_img right_id right_es;
      t.io.exec fr (Imdb_wal.Log_record.Op_image { image = left_img });
      t.io.exec right_fr (Imdb_wal.Log_record.Op_image { image = right_img }));
  (left_rect, right_rect, right_id)

let everything =
  { key_low = ""; key_high = None; t_low = Ts.zero; t_high = Ts.infinity }

(* Insert an entry for historical page [child] covering [rect].

   A data rectangle can straddle index-node time boundaries: a data page
   that goes a long stretch without time-splitting keeps an old
   split_time, so the history rect it eventually produces spans any index
   split line chosen in between.  Routing such a rect into the single
   subtree containing its reference point would leave it unreachable for
   queries on the other side of the line.  Insertion therefore posts the
   entry redundantly into {e every} leaf whose region intersects the
   rectangle — the same redundancy [split_node] applies to straddling
   entries at split time.  Historical pages are immutable, so redundant
   copies are safe; [find] reaches the same child through any copy. *)
let insert t ~rect ~child =
  let cell = encode_entry { rect; child } in
  (* The next leaf whose region intersects [rect] and does not yet hold
     the cell, as the (page_id, node_rect) chain from [page_id]'s child
     down to that leaf ([[]] when [page_id] is that leaf).  Cells are
     tested in place, from the highest slot down; only the rectangles
     on the returned chain are decoded, for a split to cut.  Recomputed
     from the root after every insert and every split, so a split that
     reshapes the tree — or cuts the rect's footprint across a fresh
     boundary — is picked up on the next pass, and a restart never
     double-posts into a leaf already covered.  A leaf holds the entry
     when one of its cells has the cell's exact bytes: the encoding is
     one-to-one. *)
  let rec pending page_id =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        if is_leaf page then
          match
            P.rfind_map_cell page (fun o -> if cell_equals page o cell then Some () else None)
          with
          | Some () -> None
          | None -> Some []
        else
          P.rfind_map_cell page (fun o ->
              if cell_overlaps page o rect then
                let child = child_at page o in
                Option.map (fun below -> (child, decode_rect page o) :: below) (pending child)
              else None))
  in
  let rec post_to_parent path ~page_id ~left_rect ~right_rect ~right_id =
    (* Record that [page_id] now covers [left_rect] and the fresh
       [right_id] covers [right_rect].  Returns the node that physically
       holds what used to be [page_id]'s contents: [page_id] itself
       normally, or the fresh left child after a root split relocation. *)
    match path with
    | (parent_id, parent_rect) :: above ->
        (* Update the existing entry for page_id to left_rect and add the
           right entry.  The rect update can GROW (a key split gives the
           left rect a fresh key_high), so room for the growth plus the
           new cell is secured up front.  When the parent must split
           first, its cut line is clean — no entry spans it — so
           page_id's entry, and both replacement rects inside it, land
           wholly in one half: post the parent's split upward, then retry
           this whole update against that half. *)
        let left_cell = encode_entry { rect = left_rect; child = page_id } in
        let right_cell = encode_entry { rect = right_rect; child = right_id } in
        let need =
          Imdb_buffer.Buffer_pool.with_page t.pool parent_id (fun fr ->
              let page = Imdb_buffer.Buffer_pool.bytes fr in
              let names_page slot = child_at page (P.cell_body_offset page slot) = page_id in
              let growth = ref 0 in
              P.iter_live page (fun slot ->
                  if names_page slot then
                    growth :=
                      !growth + max 0 (Bytes.length left_cell - P.cell_length page slot));
              (* a replace keeps its slot live, so the slot the right cell
                 takes is the same before and after the replaces *)
              match P.insert_slot page (!growth + Bytes.length right_cell) with
              | Some right_slot ->
                  P.iter_live page (fun slot ->
                      if names_page slot then
                        t.io.exec fr
                          (Imdb_wal.Log_record.Op_replace { slot; body = left_cell }));
                  t.io.exec fr
                    (Imdb_wal.Log_record.Op_insert { slot = right_slot; body = right_cell });
                  None
              | None -> Some (split_node t fr ~node_rect:parent_rect))
        in
        (match need with
        | None -> ()
        | Some (pl, pr, prid) ->
            (* the parent split before it could take the update; its left
               contents may have been relocated by a root split *)
            let parent_left_home =
              post_to_parent above ~page_id:parent_id ~left_rect:pl ~right_rect:pr
                ~right_id:prid
            in
            let target, trect =
              if rect_contains pr ~key:left_rect.key_low ~ts:left_rect.t_low then
                (prid, pr)
              else (parent_left_home, pl)
            in
            let (_ : int) =
              post_to_parent
                ((target, trect) :: above)
                ~page_id ~left_rect ~right_rect ~right_id
            in
            ());
        page_id
    | [] ->
        (* root split: move children under a new root structure, keeping
           the root page id stable; the old root's (left-half) contents
           move to a fresh child, whose id we return *)
        let root_fr = Imdb_buffer.Buffer_pool.pin t.pool t.root in
        Fun.protect
          ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool root_fr)
          (fun () ->
            let rootp = Imdb_buffer.Buffer_pool.bytes root_fr in
            let lvl = P.level rootp in
            (* here page_id = t.root and it was already image-split into
               (t.root = left, right_id); we push the left contents into a
               fresh node and relevel the root *)
            let left_id = t.io.alloc ~level:lvl in
            let left_fr = Imdb_buffer.Buffer_pool.pin t.pool left_id in
            Fun.protect
              ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool left_fr)
              (fun () ->
                let left_img = Bytes.copy (Imdb_buffer.Buffer_pool.bytes left_fr) in
                Bytes.blit rootp 0 left_img 0 (Bytes.length rootp);
                P.set_page_id left_img left_id;
                let root_img = Bytes.copy rootp in
                P.format root_img ~page_id:t.root ~page_type:P.P_tsb_index
                  ~table_id:t.table_id ~level:(lvl + 1) ();
                ignore
                  (P.insert root_img (encode_entry { rect = left_rect; child = left_id }));
                ignore
                  (P.insert root_img
                     (encode_entry { rect = right_rect; child = right_id }));
                t.io.exec left_fr (Imdb_wal.Log_record.Op_image { image = left_img });
                t.io.exec root_fr (Imdb_wal.Log_record.Op_image { image = root_img });
                left_id))
  in
  let rec loop splits =
    (* Redundant posting may visit one full leaf per time sliver a tall
       rectangle crosses, so the split count per insert is bounded by the
       leaf population, not a small constant.  Each split strictly
       shrinks the overfull node (the chosen boundary excludes at least
       one entry from each side), so a large cap only guards against
       bugs, not workloads — bulk ingest legitimately needs dozens. *)
    if splits > 1024 then failwith "Tsb.insert: no room after repeated splits";
    match pending t.root with
    | None -> ()
    | Some chain -> (
        let (leaf_id, leaf_rect), path =
          match List.rev ((t.root, everything) :: chain) with
          | leaf :: path -> (leaf, path)
          | [] -> assert false
        in
        let need_split =
          Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
              let page = Imdb_buffer.Buffer_pool.bytes fr in
              match P.insert_slot page (Bytes.length cell) with
              | Some slot ->
                  t.io.exec fr (Imdb_wal.Log_record.Op_insert { slot; body = cell });
                  None
              | None -> Some (split_node t fr ~node_rect:leaf_rect))
        in
        match need_split with
        | None -> loop splits
        | Some (left_rect, right_rect, right_id) ->
            let (_ : int) =
              post_to_parent path ~page_id:leaf_id ~left_rect ~right_rect ~right_id
            in
            loop (splits + 1))
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Integrity & stats                                                   *)
(* ------------------------------------------------------------------ *)

exception Invariant_violation of string

(* Check that children lie within their parent rectangles, that every
   leaf copy of a page carries the same rectangle, and that distinct
   pages' rectangles are disjoint.  Returns the number of leaf entries,
   copies included. *)
let check_invariants t =
  let violation fmt = Fmt.kstr (fun m -> raise (Invariant_violation m)) fmt in
  let leaves = Hashtbl.create 64 and copies = ref 0 in
  let rec walk page_id region =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        List.iter
          (fun e ->
            if not (rects_overlap e.rect region) then
              violation "entry %a outside node region %a" pp_rect e.rect pp_rect region;
            if not (is_leaf page) then walk e.child e.rect
            else begin
              incr copies;
              match Hashtbl.find_opt leaves e.child with
              | Some r when r <> e.rect ->
                  violation "page %d posted as %a and as %a" e.child pp_rect r pp_rect
                    e.rect
              | _ -> Hashtbl.replace leaves e.child e.rect
            end)
          (decode_node page))
  in
  walk t.root everything;
  let rects = Array.of_seq (Hashtbl.to_seq leaves) in
  Array.iteri
    (fun i (c1, r1) ->
      for j = i + 1 to Array.length rects - 1 do
        let c2, r2 = rects.(j) in
        if rects_overlap r1 r2 then
          violation "overlapping leaf rects: %a (page %d) and %a (page %d)" pp_rect r1 c1
            pp_rect r2 c2
      done)
    rects;
  !copies
