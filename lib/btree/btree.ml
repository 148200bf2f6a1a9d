(* B+tree over buffer-pool pages.

   Used for every ordered auxiliary structure in the engine: the
   persistent timestamp table (keyed by TID — "a B-tree based table
   ordered by TID", Section 2.2), the table catalog, the split-store
   baseline's key index, and as the key router above the clustered
   versioned data pages.

   Structure:
   - Internal nodes ([P_index]) hold cells (separator_key, child_page_id);
     the leftmost cell of every internal node has the empty separator "",
     so a floor-style descent (largest separator <= probe) always finds a
     child.  A node's separator is the lower bound of its subtree's keys.
   - Leaves ([P_heap]) hold cells (key, value) and are doubly linked
     through next_page/prev_page for range scans.
   - The root page id is stable for the lifetime of the tree (root splits
     move the root's contents into a new child).

   Cells within a page are *unsorted*; leaf lookups scan the slot array
   (routing nodes cache a sorted directory, see below).  With
   8 KB pages a node holds at most a few hundred cells, and the scan cost
   is dwarfed by page access cost; in exchange, insertion never shifts
   slots, which keeps the physiological WAL format trivial.

   Logging contract (see Log_record): key inserts and value replaces are
   undoable [Update]s in the caller's transaction; deletes and all
   structure modifications (splits, frees, page formats) are logged
   redo-only and never rolled back, in the spirit of ARIES-IM nested top
   actions.  The engine injects logging/allocation through [io], keeping
   this module free of transaction state. *)

open Imdb_util
module P = Imdb_storage.Page
module M = Imdb_obs.Metrics
module BP = Imdb_buffer.Buffer_pool
module T = Imdb_obs.Tracer

let btree_node_splits = M.counter_of M.btree_node_splits
let keydir_hits = M.counter_of M.keydir_hits
let keydir_misses = M.counter_of M.keydir_misses

type io = {
  exec : Imdb_buffer.Buffer_pool.frame -> undoable:bool -> Imdb_wal.Log_record.page_op -> unit;
      (** log the op (undoable in the current transaction, or redo-only),
          apply it to the frame's bytes and mark the frame dirty *)
  alloc : ptype:P.page_type -> level:int -> int;
      (** allocate, format and redo-log a fresh page; returns its id *)
  free : int -> unit;  (** return a page to the allocator (redo-logged) *)
  atomic : 'a. (unit -> 'a) -> 'a;
      (** run a structure modification so that a crash keeps all of its
          log records or none *)
}

type t = {
  pool : Imdb_buffer.Buffer_pool.t;
  io : io;
  root : int;
  table_id : int;
  name : string; (* for diagnostics *)
  metrics : M.t;
  tracer : T.t;
}

(* --- cell codecs -------------------------------------------------------- *)

let leaf_cell ~key ~value =
  let w = Codec.Writer.create ~size:(String.length key + Bytes.length value + 4) () in
  Codec.Writer.lstring w key;
  Codec.Writer.lbytes w value;
  Codec.Writer.contents w

let decode_leaf_cell body =
  let r = Codec.Reader.create body in
  let key = Codec.Reader.lstring r in
  let value = Codec.Reader.lbytes r in
  (key, value)

let node_cell ~key ~child =
  let w = Codec.Writer.create ~size:(String.length key + 6) () in
  Codec.Writer.lstring w key;
  Codec.Writer.u32 w child;
  Codec.Writer.contents w

let decode_node_cell body =
  let r = Codec.Reader.create body in
  let key = Codec.Reader.lstring r in
  let child = Codec.Reader.u32 r in
  (key, child)

let cell_key page slot =
  let body = P.cell_body_offset page slot in
  Codec.get_string page (body + 2) (Codec.get_u16 page body)

(* Allocation-free comparison of a cell's key with [key]: byte-lexicographic,
   shorter-is-smaller on equal prefixes (same order as String.compare).
   The loops are top-level functions so no closure is allocated per call —
   these run for every cell of a leaf on every point search. *)
let rec bytes_vs_string page off klen key n i =
  if i >= klen then if i >= n then 0 else -1
  else if i >= n then 1
  else
    let c = Char.compare (Bytes.unsafe_get page (off + i)) (String.unsafe_get key i) in
    if c <> 0 then c else bytes_vs_string page off klen key n (i + 1)

let cell_key_compare page slot key =
  let body = P.cell_body_offset page slot in
  let k = Codec.get_u16 page body in
  bytes_vs_string page (body + 2) k key (String.length key) 0

(* --- construction ------------------------------------------------------- *)

let attach ?(metrics = M.null) ?(tracer = T.null) ~pool ~io ~root ~table_id ~name () =
  { pool; io; root; table_id; name; metrics; tracer }

(* A new tree: the root starts life as an (empty) leaf. *)
let create ?metrics ?tracer ~pool ~io ~table_id ~name () =
  let root = io.alloc ~ptype:P.P_heap ~level:0 in
  attach ?metrics ?tracer ~pool ~io ~root ~table_id ~name ()

let root t = t.root
let is_leaf page = P.level page = 0

(* --- descent ------------------------------------------------------------ *)

(* Compare the keys of two cells of the same page, allocation-free. *)
let rec bytes_vs_bytes page ba ka bb kb i =
  if i >= ka then if i >= kb then 0 else -1
  else if i >= kb then 1
  else
    let c = Char.compare (Bytes.unsafe_get page (ba + i)) (Bytes.unsafe_get page (bb + i)) in
    if c <> 0 then c else bytes_vs_bytes page ba ka bb kb (i + 1)

let cell_cell_compare page a b =
  let ba = P.cell_body_offset page a and bb = P.cell_body_offset page b in
  let ka = Codec.get_u16 page ba and kb = Codec.get_u16 page bb in
  bytes_vs_bytes page (ba + 2) ka (bb + 2) kb 0

(* --- the routing-node key directory --------------------------------------

   Cells within a page are unsorted, so a search decodes every live cell.
   Internal (routing) nodes are searched on every descent but dirtied
   only when a child splits, so each one caches a sorted (key, slot)
   directory on its buffer-pool frame, built on the first search after
   an invalidation, and later searches binary-search it.  The directory
   is volatile cache only — never logged, never moving the page LSN —
   and the pool drops it on any dirtying.  Leaves keep the linear scan:
   most leaf searches precede a write to the same leaf, which would throw
   a freshly built directory away. *)

let build_keydir page =
  let n = P.live_count page in
  let keys = Array.make n "" and slots = Array.make n 0 in
  let i = ref 0 in
  P.iter_live page (fun slot ->
      keys.(!i) <- cell_key page slot;
      slots.(!i) <- slot;
      incr i);
  let idx = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = String.compare keys.(a) keys.(b) in
      if c <> 0 then c else compare slots.(a) slots.(b))
    idx;
  {
    BP.kd_keys = Array.map (fun j -> keys.(j)) idx;
    kd_slots = Array.map (fun j -> slots.(j)) idx;
  }

let frame_keydir t fr =
  match BP.keydir fr with
  | Some kd ->
      M.incr t.metrics keydir_hits;
      kd
  | None ->
      M.incr t.metrics keydir_misses;
      let kd = build_keydir (BP.bytes fr) in
      BP.set_keydir fr kd;
      kd

(* Greatest index with kd_keys.(i) <= key, or -1. *)
let kd_floor kd key =
  let keys = kd.BP.kd_keys in
  let lo = ref 0 and hi = ref (Array.length keys - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key <= 0 then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

(* In an internal node, the live slot whose separator is the greatest one
   <= [key].  The leftmost "" separator guarantees existence. *)
let node_floor_slot t fr key =
  let kd = frame_keydir t fr in
  let i = kd_floor kd key in
  if i >= 0 then kd.BP.kd_slots.(i)
  else
    failwith
      (Printf.sprintf "Btree: internal page %d lacks a floor for %S" (BP.page_id fr) key)

(* Path from root to the leaf responsible for [key]:
   [(page_id, slot_taken); ...] from root downwards, leaf id last. *)
let rec descend t page_id key path =
  Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
      let page = Imdb_buffer.Buffer_pool.bytes fr in
      if is_leaf page then (page_id, List.rev path)
      else
        let slot = node_floor_slot t fr key in
        let _, child = decode_node_cell (P.read_cell page slot) in
        descend t child key ((page_id, slot) :: path))

let find_leaf t key = T.with_span t.tracer "btree.descend" (fun _ -> descend t t.root key [])

(* --- lookups ------------------------------------------------------------ *)

let leaf_find_slot page key =
  let psize = Bytes.length page in
  let n = P.slot_count page in
  let klen = String.length key in
  let rec go slot =
    if slot >= n then None
    else
      let off = Bytes.get_uint16_le page (psize - 2 - (2 * slot)) in
      if
        off <> P.dead_slot
        && Bytes.get_uint16_le page (off + 2) = klen
        && bytes_vs_string page (off + 4) klen key klen 0 = 0
      then Some slot
      else go (slot + 1)
  in
  go 0

let find t ~key =
  let leaf_id, _ = find_leaf t key in
  Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
      let page = Imdb_buffer.Buffer_pool.bytes fr in
      match leaf_find_slot page key with
      | Some slot -> Some (snd (decode_leaf_cell (P.read_cell page slot)))
      | None -> None)

let mem t ~key = Option.is_some (find t ~key)

(* Greatest (key', value) with key' <= key, walking left through leaf
   links when the responsible leaf has nothing <= key (it may be empty or
   hold only larger keys after deletions). *)
let find_floor t ~key =
  let rec in_leaf leaf_id =
    if leaf_id = P.no_page then None
    else
      Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
          let page = Imdb_buffer.Buffer_pool.bytes fr in
          let best = ref (-1) in
          P.iter_live page (fun slot ->
              if cell_key_compare page slot key <= 0 then
                if !best < 0 || cell_cell_compare page slot !best >= 0 then best := slot);
          if !best >= 0 then Some (decode_leaf_cell (P.read_cell page !best))
          else in_leaf (P.prev_page page))
  in
  let leaf_id, _ = find_leaf t key in
  in_leaf leaf_id

(* --- iteration ----------------------------------------------------------- *)

let leaf_sorted_cells page =
  P.fold_live page ~init:[] ~f:(fun acc slot -> decode_leaf_cell (P.read_cell page slot) :: acc)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* In-order iteration over [from, upto] (inclusive bounds, both optional). *)
let iter ?from ?upto t f =
  let start_key = Option.value from ~default:"" in
  let rec walk leaf_id =
    if leaf_id <> P.no_page then begin
      let cells, next =
        Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
            let page = Imdb_buffer.Buffer_pool.bytes fr in
            (leaf_sorted_cells page, P.next_page page))
      in
      let stop = ref false in
      List.iter
        (fun (k, v) ->
          if not !stop then begin
            let after_from = match from with None -> true | Some lo -> String.compare k lo >= 0 in
            let before_upto = match upto with None -> true | Some hi -> String.compare k hi <= 0 in
            if after_from && before_upto then f k v;
            match upto with
            | Some hi when String.compare k hi > 0 -> stop := true
            | _ -> ()
          end)
        cells;
      if not !stop then walk next
    end
  in
  let leaf_id, _ = find_leaf t start_key in
  walk leaf_id

let fold ?from ?upto t ~init ~f =
  let acc = ref init in
  iter ?from ?upto t (fun k v -> acc := f !acc k v);
  !acc

let count t = fold t ~init:0 ~f:(fun n _ _ -> n + 1)

(* Smallest (key', value) with key' strictly greater than [key]; walks
   right through the leaf chain when needed. *)
let find_next t ~key =
  let rec in_leaf leaf_id =
    if leaf_id = P.no_page then None
    else
      Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
          let page = Imdb_buffer.Buffer_pool.bytes fr in
          let best = ref (-1) in
          P.iter_live page (fun slot ->
              if cell_key_compare page slot key > 0 then
                if !best < 0 || cell_cell_compare page slot !best <= 0 then best := slot);
          if !best >= 0 then Some (decode_leaf_cell (P.read_cell page !best))
          else in_leaf (P.next_page page))
  in
  let leaf_id, _ = find_leaf t key in
  in_leaf leaf_id

let min_binding t =
  let leaf_id, _ = find_leaf t "" in
  let rec go leaf_id =
    if leaf_id = P.no_page then None
    else
      let cells, next =
        Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
            let page = Imdb_buffer.Buffer_pool.bytes fr in
            (leaf_sorted_cells page, P.next_page page))
      in
      match cells with [] -> go next | (k, v) :: _ -> Some (k, v)
  in
  go leaf_id

(* --- splits --------------------------------------------------------------- *)

(* Split a full page (leaf or internal) around its sorted cell list; the
   upper half moves to a fresh right sibling.  Both pages and the parent
   separator are logged as redo-only ops: the whole split is a nested top
   action that is never undone.  Full after-images keep replay trivially
   correct.  Returns (separator_key, right_page_id). *)
let split_page t fr =
  M.incr t.metrics btree_node_splits;
  let page = Imdb_buffer.Buffer_pool.bytes fr in
  let page_id = P.page_id page in
  let leaf = is_leaf page in
  let lvl = P.level page in
  let cells =
    P.fold_live page ~init:[] ~f:(fun acc slot -> P.read_cell page slot :: acc)
    |> List.sort (fun a b ->
           let key_of c =
             let r = Codec.Reader.create c in
             Codec.Reader.lstring r
           in
           String.compare (key_of a) (key_of b))
  in
  let n = List.length cells in
  if n < 2 then failwith (Printf.sprintf "Btree %s: cannot split page %d with %d cells" t.name page_id n);
  let split_at = n / 2 in
  let lower = List.filteri (fun i _ -> i < split_at) cells in
  let upper = List.filteri (fun i _ -> i >= split_at) cells in
  let sep_key =
    let r = Codec.Reader.create (List.hd upper) in
    Codec.Reader.lstring r
  in
  let right_id = t.io.alloc ~ptype:(P.page_type page) ~level:lvl in
  let right_fr = Imdb_buffer.Buffer_pool.pin t.pool right_id in
  Fun.protect
    ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool right_fr)
    (fun () ->
      let right = Imdb_buffer.Buffer_pool.bytes right_fr in
      (* Build both new images in scratch buffers, then log them. *)
      let left_img = Bytes.copy page in
      P.format left_img ~page_id ~page_type:(P.page_type page) ~table_id:t.table_id
        ~level:lvl ();
      List.iter (fun c -> ignore (P.insert left_img c)) lower;
      let right_img = Bytes.copy right in
      P.format right_img ~page_id:right_id ~page_type:(P.page_type page)
        ~table_id:t.table_id ~level:lvl ();
      List.iter (fun c -> ignore (P.insert right_img c)) upper;
      if leaf then begin
        (* link right between page and its old successor *)
        P.set_prev_page right_img page_id;
        P.set_next_page right_img (P.next_page page);
        P.set_next_page left_img right_id;
        P.set_prev_page left_img (P.prev_page page)
      end;
      t.io.exec fr ~undoable:false (Imdb_wal.Log_record.Op_image { image = left_img });
      t.io.exec right_fr ~undoable:false (Imdb_wal.Log_record.Op_image { image = right_img });
      (* fix the old right sibling's back link *)
      if leaf && P.next_page right_img <> P.no_page then
        Imdb_buffer.Buffer_pool.with_page t.pool (P.next_page right_img) (fun nf ->
            t.io.exec nf ~undoable:false
              (Imdb_wal.Log_record.header_u32 ~at:44 right_id)));
  (sep_key, right_id)

(* Insert a separator cell into an internal node along [path]; splits
   propagate upward; a root split keeps the root page id stable by
   moving the root's contents into a fresh child. *)
let rec insert_into_node t path ~sep ~child =
  match path with
  | [] ->
      (* Splitting the root: move its cells into a new left child, then
         re-seed the root as an internal node over (left, child). *)
      let root_fr = Imdb_buffer.Buffer_pool.pin t.pool t.root in
      Fun.protect
        ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool root_fr)
        (fun () ->
          let rootp = Imdb_buffer.Buffer_pool.bytes root_fr in
          let lvl = P.level rootp in
          let left_id = t.io.alloc ~ptype:(P.page_type rootp) ~level:lvl in
          let left_fr = Imdb_buffer.Buffer_pool.pin t.pool left_id in
          Fun.protect
            ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool left_fr)
            (fun () ->
              let left_img =
                Bytes.copy (Imdb_buffer.Buffer_pool.bytes left_fr)
              in
              Bytes.blit rootp 0 left_img 0 (Bytes.length rootp);
              P.set_page_id left_img left_id;
              let root_img = Bytes.copy rootp in
              P.format root_img ~page_id:t.root ~page_type:P.P_index
                ~table_id:t.table_id ~level:(lvl + 1) ();
              ignore (P.insert root_img (node_cell ~key:"" ~child:left_id));
              ignore (P.insert root_img (node_cell ~key:sep ~child));
              t.io.exec left_fr ~undoable:false
                (Imdb_wal.Log_record.Op_image { image = left_img });
              t.io.exec root_fr ~undoable:false
                (Imdb_wal.Log_record.Op_image { image = root_img });
              (* the old root's leaf contents moved to [left_id]; its right
                 sibling (if any) must point back at the new home *)
              if lvl = 0 && P.next_page left_img <> P.no_page then
                Imdb_buffer.Buffer_pool.with_page t.pool (P.next_page left_img)
                  (fun nf ->
                    t.io.exec nf ~undoable:false
                      (Imdb_wal.Log_record.header_u32 ~at:44 left_id))))
  | (node_id, _slot) :: rest_up ->
      let fr = Imdb_buffer.Buffer_pool.pin t.pool node_id in
      let overflow =
        Fun.protect
          ~finally:(fun () -> Imdb_buffer.Buffer_pool.unpin t.pool fr)
          (fun () ->
            let page = Imdb_buffer.Buffer_pool.bytes fr in
            let cell = node_cell ~key:sep ~child in
            match P.insert_slot page (Bytes.length cell) with
            | Some slot ->
                t.io.exec fr ~undoable:false
                  (Imdb_wal.Log_record.Op_insert { slot; body = cell });
                None
            | None ->
                let sep2, right_id = split_page t fr in
                (* decide which half receives the pending separator *)
                let target_id =
                  if String.compare sep sep2 >= 0 then right_id else node_id
                in
                Some (sep2, right_id, target_id))
      in
      (match overflow with
      | None -> ()
      | Some (sep2, right_id, target_id) ->
          Imdb_buffer.Buffer_pool.with_page t.pool target_id (fun tf ->
              let page = Imdb_buffer.Buffer_pool.bytes tf in
              let cell = node_cell ~key:sep ~child in
              let slot =
                match P.insert_slot page (Bytes.length cell) with
                | Some slot -> slot
                | None ->
                    failwith
                      (Printf.sprintf "Btree %s: node %d still full after split" t.name
                         target_id)
              in
              t.io.exec tf ~undoable:false
                (Imdb_wal.Log_record.Op_insert { slot; body = cell }));
          (* propagate the new sibling upward (rest_up is parent-first) *)
          insert_into_node t rest_up ~sep:sep2 ~child:right_id)

(* Max cell body a page can host: header + one slot entry + cell header. *)
let max_cell_size t =
  let ps = Imdb_buffer.Buffer_pool.page_size t.pool in
  ((ps - P.header_size) / 2) - 16 (* conservative: two cells must fit for splits *)

(* Insert or replace (key, value).  [undoable] (default true) makes the
   change transactional with logical undo; structural callers — e.g. the
   router posting a key-split separator — pass false to log the plain
   redo-only slot op. *)
let insert ?(undoable = true) t ~key ~value =
  let cell = leaf_cell ~key ~value in
  if Bytes.length cell > max_cell_size t then
    invalid_arg
      (Printf.sprintf "Btree %s: entry of %d bytes exceeds page capacity" t.name
         (Bytes.length cell));
  let rec attempt () =
    let leaf_id, path = find_leaf t key in
    (* split the full leaf and post its separator as one atomic group *)
    let split fr =
      t.io.atomic (fun () ->
          let sep, right_id = split_page t fr in
          insert_into_node t (List.rev path) ~sep ~child:right_id);
      `Split
    in
    let outcome =
      Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
          let page = Imdb_buffer.Buffer_pool.bytes fr in
          match leaf_find_slot page key with
          | Some slot when
              (* replacing may grow the value past the page's capacity *)
              P.free_space page + P.cell_length page slot + 2
              >= Bytes.length cell + 2 ->
              let op =
                if undoable then
                  Imdb_wal.Log_record.Op_kv_replace
                    {
                      slot;
                      old_body = P.read_cell page slot;
                      new_body = cell;
                      table_id = t.table_id;
                    }
                else Imdb_wal.Log_record.Op_replace { slot; body = cell }
              in
              t.io.exec fr ~undoable op;
              `Done
          | Some _ -> split fr
          | None -> (
              match P.insert_slot page (Bytes.length cell) with
              | Some slot ->
                  let op =
                    if undoable then
                      Imdb_wal.Log_record.Op_kv_insert
                        { slot; body = cell; table_id = t.table_id }
                    else Imdb_wal.Log_record.Op_insert { slot; body = cell }
                  in
                  t.io.exec fr ~undoable op;
                  `Done
              | None -> split fr))
    in
    match outcome with
    | `Done -> ()
    | `Split ->
        (* Re-descend: the responsible leaf may now be the new sibling. *)
        attempt ()
  in
  attempt ()

(* Append [cells] (sorted, all above every key the page holds) at the
   end of [fr]'s slot array while they fit — no key search and no
   dead-slot scan, since no key can be present and a new slot is always a
   legal one — and log the leaf's change as the smaller of two records:
   one [Op_insert] per cell, or one [Op_image] of the leaf as filled
   (which a full leaf usually earns).  Returns the cells that did not
   fit. *)
let append_to_leaf t fr cells =
  (* a redo-only frame's bytes besides the cell or the image: frame
     header, record and op tags, page id, slot or length *)
  let framing = 18 in
  let img = Bytes.copy (Imdb_buffer.Buffer_pool.bytes fr) in
  let rec fill acc inserts_bytes = function
    | (_, cell) :: tl when P.free_space img >= Bytes.length cell + 4 ->
        let slot = P.slot_count img in
        P.insert_at_slot img slot cell;
        fill ((slot, cell) :: acc) (inserts_bytes + Bytes.length cell + framing) tl
    | rest -> (List.rev acc, inserts_bytes, rest)
  in
  let appended, inserts_bytes, rest = fill [] 0 cells in
  if inserts_bytes > Bytes.length img + framing then
    t.io.exec fr ~undoable:false (Imdb_wal.Log_record.Op_image { image = img })
  else
    List.iter
      (fun (slot, body) ->
        t.io.exec fr ~undoable:false (Imdb_wal.Log_record.Op_insert { slot; body }))
      appended;
  rest

(* The right-edge append: [cells] lie beyond the largest key of the tree,
   whose rightmost leaf is [leaf_id].  That leaf takes what fits, then
   each fresh leaf is allocated, filled, linked after its predecessor and
   given a separator — one atomic structure modification per leaf, like a
   split, but with no half-empty pages and no per-entry search. *)
let append_right t ~leaf_id cells =
  let rec grow prev_id = function
    | [] -> ()
    | (sep, _) :: _ as cells ->
        let leaf_id, rest =
          t.io.atomic (fun () ->
              let leaf_id = t.io.alloc ~ptype:P.P_heap ~level:0 in
              let rest =
                Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
                    t.io.exec fr ~undoable:false
                      (Imdb_wal.Log_record.header_u32 ~at:44 prev_id);
                    append_to_leaf t fr cells)
              in
              Imdb_buffer.Buffer_pool.with_page t.pool prev_id (fun pf ->
                  t.io.exec pf ~undoable:false (Imdb_wal.Log_record.header_u32 ~at:40 leaf_id));
              (* the path to [prev_id], still the rightmost leaf *)
              let _, path = find_leaf t sep in
              insert_into_node t (List.rev path) ~sep ~child:leaf_id;
              (leaf_id, rest))
        in
        grow leaf_id rest
  in
  grow leaf_id
    (Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr -> append_to_leaf t fr cells))

(* Insert or replace many entries, redo-only.  Entries are sorted, and
   those beyond the tree's largest key — the largest key of the
   rightmost leaf — are a right-edge append ([append_right]).  PTT
   posting is mostly that case: TIDs only grow, and only a transaction
   that began before an already posted one, or a mapping posted again
   after a crash, lands below; those go in one by one, as [insert]
   does. *)
let insert_batch t entries =
  let entries = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) entries in
  let cells = List.map (fun (key, value) -> (key, leaf_cell ~key ~value)) entries in
  List.iter
    (fun (_, cell) ->
      if Bytes.length cell > max_cell_size t then
        invalid_arg
          (Printf.sprintf "Btree %s: entry of %d bytes exceeds page capacity" t.name
             (Bytes.length cell)))
    cells;
  match List.rev cells with
  | [] -> ()
  | (last, _) :: _ ->
      let leaf_id, _ = find_leaf t last in
      (* the tree's largest key, from the rightmost leaf when [last]
         routes there; an empty rightmost leaf that is not the root
         leaves it unknown, and every entry goes in one by one *)
      let largest =
        Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
            let page = Imdb_buffer.Buffer_pool.bytes fr in
            if P.next_page page <> P.no_page then `Unknown
            else
              match
                P.fold_live page ~init:(-1) ~f:(fun best slot ->
                    if best < 0 || cell_cell_compare page slot best > 0 then slot else best)
              with
              | -1 -> if leaf_id = t.root then `Empty_tree else `Unknown
              | best -> `Key (cell_key page best))
      in
      let below key =
        match largest with
        | `Key max -> String.compare key max <= 0
        | `Empty_tree -> false
        | `Unknown -> true
      in
      let beyond = List.filter (fun (key, _) -> not (below key)) cells in
      if beyond <> [] then append_right t ~leaf_id beyond;
      List.iter
        (fun (key, value) -> if below key then insert ~undoable:false t ~key ~value)
        entries

(* --- deletion -------------------------------------------------------------- *)

(* Unlink an empty leaf from the sibling chain and free it, removing its
   separator from the parent (recursively if the parent empties down to
   its leftmost "" cell only... we keep nodes once they still route). *)
let remove_separator t path child_id =
  match path with
  | [] -> () (* the root itself; never freed *)
  | (node_id, _) :: _ ->
      Imdb_buffer.Buffer_pool.with_page t.pool node_id (fun fr ->
          let page = Imdb_buffer.Buffer_pool.bytes fr in
          let victim = ref None in
          P.iter_live page (fun slot ->
              let k, c = decode_node_cell (P.read_cell page slot) in
              if c = child_id && String.compare k "" <> 0 then victim := Some (slot, k));
          match !victim with
          | Some (slot, _) ->
              t.io.exec fr ~undoable:false (Imdb_wal.Log_record.Op_delete { slot })
          | None -> ())

let unlink_leaf t page =
  let prev = P.prev_page page and next = P.next_page page in
  if prev <> P.no_page then
    Imdb_buffer.Buffer_pool.with_page t.pool prev (fun pf ->
        t.io.exec pf ~undoable:false (Imdb_wal.Log_record.header_u32 ~at:40 next));
  if next <> P.no_page then
    Imdb_buffer.Buffer_pool.with_page t.pool next (fun nf ->
        t.io.exec nf ~undoable:false (Imdb_wal.Log_record.header_u32 ~at:44 prev))

(* Unlink an emptied leaf, drop its separator and free it: one atomic
   structure modification. *)
let reclaim_leaf t ~path leaf_id =
  t.io.atomic (fun () ->
      Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
          unlink_leaf t (Imdb_buffer.Buffer_pool.bytes fr));
      remove_separator t (List.rev path) leaf_id;
      t.io.free leaf_id)

(* Delete many keys in one pass: sort them, descend once per leaf run and
   drop every key that lives in the pinned leaf before moving on.  Keys
   in ascending order hit ascending leaves, so a key not found in the
   current leaf is either absent or belongs to a later one — it becomes
   the next run's head and gets its own descent.  Ptt GC deletes cluster
   tightly by construction (TIDs are assigned in order), so the common
   cost is one descent for the whole batch.  Returns the number of keys
   that existed. *)
let delete_batch ?(undoable = false) t ~keys =
  let keys = List.sort_uniq String.compare keys in
  let deleted = ref 0 in
  let rec run = function
    | [] -> ()
    | key :: rest ->
        let leaf_id, path = find_leaf t key in
        let remaining = ref rest in
        let emptied =
          Imdb_buffer.Buffer_pool.with_page t.pool leaf_id (fun fr ->
              let page = Imdb_buffer.Buffer_pool.bytes fr in
              let del k =
                match leaf_find_slot page k with
                | None -> false
                | Some slot ->
                    let op =
                      if undoable then
                        Imdb_wal.Log_record.Op_kv_delete
                          { slot; body = P.read_cell page slot; table_id = t.table_id }
                      else Imdb_wal.Log_record.Op_delete { slot }
                    in
                    t.io.exec fr ~undoable op;
                    incr deleted;
                    true
              in
              (* the head key routed here: absent if not found *)
              ignore (del key);
              let rec consume () =
                match !remaining with
                | k :: tl when del k ->
                    remaining := tl;
                    consume ()
                | _ -> ()
              in
              consume ();
              P.live_count page = 0 && leaf_id <> t.root)
        in
        if emptied then begin
          let is_leftmost =
            match List.rev path with
            | (parent_id, slot) :: _ ->
                Imdb_buffer.Buffer_pool.with_page t.pool parent_id (fun fr ->
                    let page = Imdb_buffer.Buffer_pool.bytes fr in
                    String.equal (cell_key page slot) "")
            | [] -> true
          in
          if not is_leftmost then reclaim_leaf t ~path leaf_id
        end;
        run !remaining
  in
  run keys;
  !deleted

(* Delete [key].  By default logged redo-only, which suits
   non-transactional maintenance (PTT garbage collection, DROP TABLE at
   commit).  Transactional deletes from conventional tables pass
   [~undoable:true], logging an [Op_kv_delete] whose logical undo
   re-inserts the cell.  Returns whether the key existed. *)
let delete ?undoable t ~key = delete_batch ?undoable t ~keys:[ key ] > 0

(* --- integrity checking (test support) ------------------------------------- *)

exception Invariant_violation of string

let fail_inv fmt = Fmt.kstr (fun s -> raise (Invariant_violation s)) fmt

(* Walk the whole tree checking: separator bounds, leaf chain consistency,
   level monotonicity.  Returns the number of keys. *)
let check_invariants t =
  (* the leaves in key order, as the walk meets them (last first), each
     with its links and its key range *)
  let leaves = ref [] in
  let rec walk page_id ~low ~high ~expect_level =
    Imdb_buffer.Buffer_pool.with_page t.pool page_id (fun fr ->
        let page = Imdb_buffer.Buffer_pool.bytes fr in
        (match expect_level with
        | Some l when P.level page <> l ->
            fail_inv "page %d: level %d, expected %d" page_id (P.level page) l
        | _ -> ());
        if is_leaf page then begin
          let keys =
            P.fold_live page ~init:[] ~f:(fun acc slot -> cell_key page slot :: acc)
            |> List.sort String.compare
          in
          List.iter
            (fun k ->
              if String.compare k low < 0 then
                fail_inv "leaf %d: key %S below bound %S" page_id k low;
              match high with
              | Some h when String.compare k h >= 0 ->
                  fail_inv "leaf %d: key %S above bound %S" page_id k h
              | _ -> ())
            keys;
          leaves := (page_id, P.prev_page page, P.next_page page, keys) :: !leaves;
          List.length keys
        end
        else begin
          let cells =
            P.fold_live page ~init:[] ~f:(fun acc slot ->
                decode_node_cell (P.read_cell page slot) :: acc)
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          if cells = [] then fail_inv "internal node %d is empty" page_id;
          (match cells with
          | (k, _) :: _ when String.compare k low < 0 ->
              fail_inv "node %d: first separator %S below bound %S" page_id k low
          | _ -> ());
          let rec check_children acc = function
            | [] -> acc
            | (k, child) :: rest ->
                let child_high = match rest with (k2, _) :: _ -> Some k2 | [] -> high in
                let sub =
                  walk child ~low:(if String.compare k low > 0 then k else low)
                    ~high:child_high ~expect_level:(Some (P.level page - 1))
                in
                check_children (acc + sub) rest
          in
          check_children 0 cells
        end)
  in
  let n = walk t.root ~low:"" ~high:None ~expect_level:None in
  (* the chain: each leaf links both ways to its neighbours in key order,
     the ends link nowhere — so it holds exactly the tree's leaves — and
     keys ascend from one leaf to the next *)
  let rec chain prev_id prev_last = function
    | [] -> ()
    | (id, prev, next, keys) :: rest ->
        let next_id = match rest with (nid, _, _, _) :: _ -> nid | [] -> P.no_page in
        if prev <> prev_id then fail_inv "leaf %d: prev link %d, expected %d" id prev prev_id;
        if next <> next_id then fail_inv "leaf %d: next link %d, expected %d" id next next_id;
        (match (prev_last, keys) with
        | Some last, first :: _ when String.compare last first >= 0 ->
            fail_inv "leaf %d: first key %S not above the previous leaf's last %S" id first last
        | _ -> ());
        chain id (match List.rev keys with last :: _ -> Some last | [] -> prev_last) rest
  in
  chain P.no_page None (List.rev !leaves);
  n
