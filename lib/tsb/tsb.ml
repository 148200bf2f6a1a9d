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

open Imdb_util
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

let rect_key_overlaps r ~low ~high =
  (* [low, high) intersects r's key range *)
  (match r.key_high with None -> true | Some rh -> String.compare low rh < 0)
  && match high with None -> true | Some h -> String.compare r.key_low h < 0

let rect_time_overlaps r ~t0 ~t1 =
  Ts.compare r.t_low t1 < 0 && Ts.compare t0 r.t_high < 0

let pp_rect ppf r =
  Fmt.pf ppf "[%S,%s) x [%a,%s)" r.key_low
    (match r.key_high with None -> "+inf" | Some h -> Printf.sprintf "%S" h)
    Ts.pp r.t_low
    (if Ts.equal r.t_high Ts.infinity then "+inf" else Ts.to_string r.t_high)

type entry = { rect : rect; child : int }

(* --- entry codec --------------------------------------------------------- *)

let encode_entry e =
  let w = Codec.Writer.create ~size:64 () in
  Codec.Writer.lstring w e.rect.key_low;
  (match e.rect.key_high with
  | None -> Codec.Writer.u8 w 0
  | Some h ->
      Codec.Writer.u8 w 1;
      Codec.Writer.lstring w h);
  let ts_buf = Bytes.create Ts.on_disk_size in
  Ts.write ts_buf 0 e.rect.t_low;
  Codec.Writer.bytes w ts_buf;
  Ts.write ts_buf 0 e.rect.t_high;
  Codec.Writer.bytes w ts_buf;
  Codec.Writer.u32 w e.child;
  Codec.Writer.contents w

let decode_entry body =
  let r = Codec.Reader.create body in
  let key_low = Codec.Reader.lstring r in
  let key_high = if Codec.Reader.u8 r = 1 then Some (Codec.Reader.lstring r) else None in
  let t_low = Ts.read (Codec.Reader.bytes r Ts.on_disk_size) 0 in
  let t_high = Ts.read (Codec.Reader.bytes r Ts.on_disk_size) 0 in
  let child = Codec.Reader.u32 r in
  { rect = { key_low; key_high; t_low; t_high }; child }

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

let node_entries page =
  P.fold_live page ~init:[] ~f:(fun acc slot -> decode_entry (P.read_cell page slot) :: acc)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* The historical page whose rectangle contains (key, ts), if any. *)
let find t ~key ~ts =
  let rec go page_id =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        let hit =
          List.find_opt (fun e -> rect_contains e.rect ~key ~ts) (node_entries page)
        in
        match hit with
        | None -> None
        | Some e -> if is_leaf page then Some e.child else go e.child)
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
  let entries = node_entries page in
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
  let split =
    match time_bounds with
    | _ :: _ ->
        let arr = Array.of_list time_bounds in
        let tmid = arr.(Array.length arr / 2) in
        `Time tmid
    | [] ->
        let key_bounds =
          List.map (fun e -> e.rect.key_low) entries
          |> List.filter (fun k -> String.compare k node_rect.key_low > 0)
          |> List.filter (fun b ->
                 (not clean_required) || not (List.exists (key_spans b) entries))
          |> List.sort_uniq String.compare
        in
        (match key_bounds with
        | [] -> `Stuck
        | _ ->
            let arr = Array.of_list key_bounds in
            `Key arr.(Array.length arr / 2))
  in
  match split with
  | `Stuck ->
      failwith
        (Printf.sprintf "Tsb: index node %d cannot be split (degenerate region)" page_id)
  | `Time tmid ->
      let left_es =
        List.filter (fun e -> Ts.compare e.rect.t_low tmid < 0) entries
      in
      let right_es =
        List.filter (fun e -> Ts.compare e.rect.t_high tmid > 0) entries
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
      ( { node_rect with t_high = tmid },
        { node_rect with t_low = tmid },
        right_id )
  | `Key kmid ->
      let left_es =
        List.filter (fun e -> String.compare e.rect.key_low kmid < 0) entries
      in
      let right_es =
        List.filter
          (fun e ->
            match e.rect.key_high with
            | None -> true
            | Some h -> String.compare h kmid > 0)
          entries
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
      ( { node_rect with key_high = Some kmid },
        { node_rect with key_low = kmid },
        right_id )

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
  let entry = { rect; child } in
  let cell = encode_entry entry in
  let intersects r =
    rect_key_overlaps r ~low:rect.key_low ~high:rect.key_high
    && rect_time_overlaps r ~t0:rect.t_low ~t1:rect.t_high
  in
  (* The next leaf whose region intersects [rect] and does not yet hold
     the entry, with its (page_id, node_rect) path from the root.
     Recomputed from the root after every insert and every split, so a
     split that reshapes the tree — or cuts the rect's footprint across a
     fresh boundary — is picked up on the next pass, and a restart never
     double-posts into a leaf already covered. *)
  let rec pending page_id node_rect path =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        let es = node_entries page in
        if is_leaf page then
          if List.mem entry es then None else Some (page_id, node_rect, path)
        else
          List.fold_left
            (fun acc e ->
              match acc with
              | Some _ -> acc
              | None ->
                  if intersects e.rect then
                    pending e.child e.rect ((page_id, node_rect) :: path)
                  else None)
            None es)
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
              let growth = ref 0 in
              P.iter_live page (fun slot ->
                  let e = decode_entry (P.read_cell page slot) in
                  if e.child = page_id then
                    growth :=
                      !growth
                      + max 0
                          (Bytes.length left_cell
                          - Bytes.length (P.read_cell page slot)));
              if P.fits page (!growth + Bytes.length right_cell) then begin
                P.iter_live page (fun slot ->
                    let e = decode_entry (P.read_cell page slot) in
                    if e.child = page_id then
                      t.io.exec fr
                        (Imdb_wal.Log_record.Op_replace { slot; body = left_cell }));
                let slot = P.choose_insert_slot page in
                t.io.exec fr (Imdb_wal.Log_record.Op_insert { slot; body = right_cell });
                None
              end
              else Some (split_node t fr ~node_rect:parent_rect))
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
    match pending t.root everything [] with
    | None -> ()
    | Some (leaf_id, leaf_rect, path) -> (
        let need_split =
          Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
              let page = Imdb_buffer.Buffer_pool.bytes fr in
              if P.fits page (Bytes.length cell) then begin
                let slot = P.choose_insert_slot page in
                t.io.exec fr (Imdb_wal.Log_record.Op_insert { slot; body = cell });
                None
              end
              else Some (split_node t fr ~node_rect:leaf_rect))
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

(* Check that children lie within their parent rectangles and that leaf
   rectangles are pairwise disjoint (allowing exact duplicates from
   redundant posting).  Returns the number of leaf entries. *)
let check_invariants t =
  let leaf_rects = ref [] in
  let rec walk page_id region =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        let es = node_entries page in
        List.iter
          (fun e ->
            if
              not
                (rect_key_overlaps e.rect ~low:region.key_low ~high:region.key_high
                && rect_time_overlaps e.rect ~t0:region.t_low ~t1:region.t_high)
            then
              raise
                (Invariant_violation
                   (Fmt.str "entry %a outside node region %a" pp_rect e.rect pp_rect
                      region)))
          es;
        if is_leaf page then
          List.iter (fun e -> leaf_rects := (e.rect, e.child) :: !leaf_rects) es
        else List.iter (fun e -> walk e.child e.rect) es)
  in
  walk t.root everything;
  (* disjointness among distinct pages, after clipping redundant copies *)
  let rects = !leaf_rects in
  List.iteri
    (fun i (r1, c1) ->
      List.iteri
        (fun j (r2, c2) ->
          if i < j && c1 <> c2 then
            let key_olap =
              rect_key_overlaps r1 ~low:r2.key_low ~high:r2.key_high
            in
            let t_olap = rect_time_overlaps r1 ~t0:r2.t_low ~t1:r2.t_high in
            if key_olap && t_olap then
              raise
                (Invariant_violation
                   (Fmt.str "overlapping leaf rects: %a (page %d) and %a (page %d)"
                      pp_rect r1 c1 pp_rect r2 c2)))
        rects)
    rects;
  List.length rects
