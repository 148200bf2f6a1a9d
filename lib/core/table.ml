(* Table data operations.

   Versioned tables (Immortal and Snapshot) are a key router (a B-tree
   mapping low keys to data page ids) above versioned data pages.  Every
   write inserts a new version; deletes insert delete stubs; pages split
   by time (Immortal) or garbage-collect dead versions (Snapshot) when
   full, with an additional key split when the surviving data still
   exceeds the threshold T (paper Section 3.3).  Conventional tables are
   plain B-trees updated in place.

   Reads implement the three access paths of the paper:
   - current reads via the router (identical cost to a conventional scan);
   - snapshot reads at the transaction's snapshot time;
   - AS OF reads at an arbitrary past time, first probing the current
     page's split time, then either walking the time-split page chain or
     probing the TSB index directly.
   Current pages are pinned and stamped in the buffer pool; history pages,
   immutable once written, are read through [Engine.history_page] and
   [Engine.history_link], which serve them from a decoded-image memo. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module P = Imdb_storage.Page
module R = Imdb_storage.Record
module BP = Imdb_buffer.Buffer_pool
module LR = Imdb_wal.Log_record
module V = Imdb_version.Vpage
module E = Engine
module Mx = Imdb_obs.Metrics

let asof_pages = Mx.counter_of Mx.asof_pages
let asof_versions = Mx.counter_of Mx.asof_versions
let compress_raw_bytes = Mx.counter_of Mx.compress_raw_bytes
let hist_bytes_written = Mx.counter_of Mx.hist_bytes_written
let compress_ratio = Mx.gauge_of Mx.compress_ratio
let ingest_appends = Mx.counter_of Mx.ingest_appends
let ingest_deferred_splits = Mx.counter_of Mx.ingest_deferred_splits
let ingest_flush_messages = Mx.counter_of Mx.ingest_flush_messages
let ingest_flush_pages = Mx.counter_of Mx.ingest_flush_pages
let ingest_flushes = Mx.counter_of Mx.ingest_flushes
let h_ingest_flush_run = Mx.histogram_of Mx.h_ingest_flush_run

exception Duplicate_key of string
exception No_such_key of string
exception Write_conflict of { key : string; committed_at : Ts.t option }
exception Not_versioned of string
exception Page_overflow of string

let is_versioned ti =
  match ti.Catalog.ti_mode with
  | Catalog.Immortal | Catalog.Snapshot_table -> true
  | Catalog.Conventional -> false

(* --- structure handles --------------------------------------------------- *)

let router eng ti =
  Imdb_btree.Btree.attach ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
    ~io:(E.btree_io_for eng ti.Catalog.ti_id) ~root:ti.Catalog.ti_root
    ~table_id:ti.Catalog.ti_id
    ~name:(ti.Catalog.ti_name ^ ".router") ()

let conv_tree eng ti =
  Imdb_btree.Btree.attach ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
    ~io:(E.btree_io_for eng ti.Catalog.ti_id) ~root:ti.Catalog.ti_root
    ~table_id:ti.Catalog.ti_id ~name:ti.Catalog.ti_name ()

let tsb eng ti =
  if ti.Catalog.ti_tsb_root = 0 then None
  else
    Some
      (Imdb_tsb.Tsb.attach ~pool:eng.E.pool ~io:(E.tsb_io eng ti.Catalog.ti_id)
         ~root:ti.Catalog.ti_tsb_root ~table_id:ti.Catalog.ti_id)

let page_id_value pid =
  let b = Bytes.create 4 in
  Imdb_util.Codec.set_u32 b 0 pid;
  b

let page_id_of_value v = Imdb_util.Codec.get_u32 v 0

let in_range key ~low ~high =
  String.compare key low >= 0
  && match high with None -> true | Some h -> String.compare key h < 0

(* The data page responsible for [key] (hot path: one router descent). *)
let locate_page eng ti ~key =
  let rt = router eng ti in
  match Imdb_btree.Btree.find_floor rt ~key with
  | None -> failwith (Printf.sprintf "Table %s: router has no floor" ti.Catalog.ti_name)
  | Some (_low, v) -> page_id_of_value v

(* The data page responsible for [key], together with its router bounds
   [low, high) (high = None meaning +inf) — used by the split path and the
   TSB rectangle computation. *)
let locate eng ti ~key =
  let rt = router eng ti in
  match Imdb_btree.Btree.find_floor rt ~key with
  | None -> failwith (Printf.sprintf "Table %s: router has no floor" ti.Catalog.ti_name)
  | Some (low, v) ->
      let high = Option.map fst (Imdb_btree.Btree.find_next rt ~key:low) in
      (page_id_of_value v, low, high)

(* All router entries in key order: (low, high, page_id). *)
let router_ranges eng ti =
  let rt = router eng ti in
  let entries = Imdb_btree.Btree.fold rt ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
  let entries = List.rev entries in
  let rec bounds = function
    | [] -> []
    | [ (low, v) ] -> [ (low, None, page_id_of_value v) ]
    | (low, v) :: ((next, _) :: _ as rest) ->
        (low, Some next, page_id_of_value v) :: bounds rest
  in
  bounds entries

(* --- table creation ------------------------------------------------------ *)

(* Create a table's storage structures and catalog entry.  Runs inside the
   caller's (DDL) transaction: the catalog insert is undoable, the
   structure allocation is not (an aborted CREATE leaks pages, as real
   engines tolerate for nested-top-action structure builds). *)
let create eng ~name ~mode ~schema =
  if Hashtbl.mem eng.E.table_ids name then
    invalid_arg (Printf.sprintf "table %s already exists" name);
  let id = eng.E.meta.Meta.next_table_id in
  E.update_meta eng (fun m -> m.Meta.next_table_id <- id + 1);
  let ti =
    match mode with
    | Catalog.Conventional ->
        let tree =
          Imdb_btree.Btree.create ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
            ~io:(E.btree_io_for eng id) ~table_id:id ~name ()
        in
        {
          Catalog.ti_id = id;
          ti_name = name;
          ti_mode = mode;
          ti_schema = schema;
          ti_root = Imdb_btree.Btree.root tree;
          ti_tsb_root = 0;
          ti_buf_root = 0;
        }
    | Catalog.Immortal | Catalog.Snapshot_table ->
        let rt =
          Imdb_btree.Btree.create ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
            ~io:(E.btree_io_for eng id) ~table_id:id ~name:(name ^ ".router") ()
        in
        let first_page = E.alloc_page eng ~ptype:P.P_data ~level:0 ~table_id:id in
        Imdb_btree.Btree.insert ~undoable:false rt ~key:""
          ~value:(page_id_value first_page);
        let tsb_root =
          if mode = Catalog.Immortal && eng.E.config.E.tsb_enabled then
            Imdb_tsb.Tsb.root
              (Imdb_tsb.Tsb.create ~pool:eng.E.pool ~io:(E.tsb_io eng id) ~table_id:id)
          else 0
        in
        {
          Catalog.ti_id = id;
          ti_name = name;
          ti_mode = mode;
          ti_schema = schema;
          ti_root = Imdb_btree.Btree.root rt;
          ti_tsb_root = tsb_root;
          ti_buf_root = 0;
        }
  in
  Catalog.store (E.catalog_exn eng) ti;
  (match eng.E.cur_txn with
  | Some txn ->
      E.note_write eng txn ~table_id:Meta.catalog_table_id ~key:name
  | None -> ());
  E.register_table eng ti;
  ti

let drop eng name =
  match E.table_by_name eng name with
  | None -> false
  | Some ti ->
      ignore (Catalog.remove (E.catalog_exn eng) name);
      (match eng.E.cur_txn with
      | Some txn ->
          E.note_write eng txn ~table_id:Meta.catalog_table_id ~key:name
      | None -> ());
      E.unregister_table eng ti;
      true

(* --- page splitting ------------------------------------------------------ *)

(* Split the full data page [pid] of [ti] to make room.  Immortal tables
   time-split (and key-split when current utilization stays above T);
   snapshot tables garbage-collect dead versions, falling back to a key
   split when everything is still needed.

   [split_at] is the deferred split time a buffer flush carries: the
   clock reading recorded when the overflowing message arrived, advanced
   past it — exactly the time an unbuffered descent would have chosen at
   that write.  A page already split at or after it key-splits instead.

   The split is one atomic WAL group: a crash that kept only a prefix of
   its images and router separator could lose the keys moved to a right
   half the router never learned of. *)
let split_data_page ?split_at eng ti ~pid ~low ~high =
  Imdb_wal.Wal.atomically eng.E.wal @@ fun () ->
  let threshold = eng.E.config.E.key_split_threshold in
  let key_split_page fr =
    Imdb_obs.Tracer.with_span eng.E.tracer "split.key" @@ fun sp ->
    Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
    Imdb_obs.Tracer.add_attr sp "page" string_of_int pid;
    let page = BP.bytes fr in
    if not (V.has_two_keys page) then
      raise
        (Page_overflow
           (Printf.sprintf "table %s: page %d holds one giant key chain"
              ti.Catalog.ti_name pid));
    let right_pid = E.alloc_page eng ~ptype:P.P_data ~level:0 ~table_id:ti.Catalog.ti_id in
    let ks = V.key_split ~metrics:eng.E.metrics ~page ~right_page_id:right_pid () in
    E.exec_op eng fr ~undoable:false (LR.Op_image { image = ks.V.ks_left });
    BP.with_page eng.E.pool right_pid (fun rfr ->
        E.exec_op eng rfr ~undoable:false (LR.Op_image { image = ks.V.ks_right }));
    Imdb_obs.Tracer.add_attr sp "right_page" string_of_int right_pid;
    Imdb_btree.Btree.insert ~undoable:false (router eng ti) ~key:ks.V.ks_separator
      ~value:(page_id_value right_pid)
  in
  BP.with_page eng.E.pool pid (fun fr ->
      (* every committed version must carry its timestamp before versions
         can be classified (Section 2.2, trigger four) *)
      E.stamp eng fr;
      let page = BP.bytes fr in
      match ti.Catalog.ti_mode with
      | Catalog.Conventional -> assert false
      | Catalog.Immortal
        when Option.fold split_at ~none:false ~some:(fun s ->
                 Ts.compare s (P.split_time page) <= 0) ->
          (* this flush already time-split the page at this deferred
             time: a later time could date the current page after a
             commit at this one whose remaining versions still land on
             it, and this time sheds nothing more *)
          key_split_page fr
      | Catalog.Immortal ->
          Imdb_obs.Tracer.with_span eng.E.tracer "split.time" @@ fun sp ->
          Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
          Imdb_obs.Tracer.add_attr sp "page" string_of_int pid;
          (* split at now, strictly after every issued commit timestamp
             (or at the flush's deferred clock reading) *)
          let old_split = P.split_time page in
          let s =
            match split_at with
            | Some s -> s
            | None -> Ts.succ (Imdb_clock.Clock.last_issued eng.E.clock)
          in
          Imdb_clock.Clock.observe eng.E.clock s;
          let hist_pid =
            E.alloc_page eng ~ptype:P.P_history_compressed ~level:0
              ~table_id:ti.Catalog.ti_id
          in
          let images =
            V.time_split ~metrics:eng.E.metrics ~page ~split_time:s
              ~history_page_id:hist_pid ()
          in
          E.exec_op eng fr ~undoable:false (LR.Op_image { image = images.V.si_current });
          (* the history image is immutable from this point on: delta-
             compress it so the logged image — the split's permanent
             storage cost — shrinks.  Only the compressed form is
             stored. *)
          let hist_image =
            Imdb_obs.Tracer.with_span eng.E.tracer "split.encode" @@ fun _ ->
            Imdb_storage.Vcompress.encode images.V.si_history
          in
          let m = eng.E.metrics in
          Mx.add m compress_raw_bytes (Bytes.length images.V.si_history);
          Mx.add m hist_bytes_written (Bytes.length hist_image);
          Mx.set_gauge m compress_ratio
            (Mx.get m Mx.hist_bytes_written * 100 / Mx.get m Mx.compress_raw_bytes);
          Imdb_obs.Tracer.add_attr sp "hist_page" string_of_int hist_pid;
          Imdb_obs.Tracer.add_attr sp "hist_bytes"
            (fun b -> string_of_int (Bytes.length b))
            hist_image;
          BP.with_page eng.E.pool hist_pid (fun hfr ->
              E.exec_op eng hfr ~undoable:false (LR.Op_image { image = hist_image }));
          (match tsb eng ti with
          | Some index ->
              Imdb_obs.Tracer.with_span eng.E.tracer "tsb.insert" @@ fun _ ->
              Imdb_tsb.Tsb.insert index
                ~rect:
                  {
                    Imdb_tsb.Tsb.key_low = low;
                    key_high = high;
                    t_low = old_split;
                    t_high = s;
                  }
                ~child:hist_pid
          | None -> ());
          (* key split when current utilization stays above the
             threshold T after the time split (Section 3.3) *)
          if P.utilization (BP.bytes fr) > threshold then key_split_page fr
      | Catalog.Snapshot_table ->
          let snapshots = E.active_snapshots eng in
          let img, dropped = V.gc_versions ~page ~snapshots in
          if dropped > 0 then
            E.exec_op eng fr ~undoable:false (LR.Op_image { image = img })
          else key_split_page fr)

(* --- versioned writes ----------------------------------------------------- *)

(* First-committer-wins validation for snapshot-isolation writers: the
   current version must not postdate the writer's snapshot. *)
let validate_si_write eng txn page ~key =
  match V.find_current page ~key with
  | None -> ()
  | Some slot -> (
      match R.in_page_ttime page slot with
      | Tid.Unstamped tid when Tid.equal tid txn.E.tx_tid -> ()
      | Tid.Unstamped tid -> (
          match Imdb_tstamp.Lazy_stamper.resolve_for_stamping eng.E.stamper tid with
          | V.Committed ts when Ts.compare ts txn.E.tx_snapshot > 0 ->
              raise (Write_conflict { key; committed_at = Some ts })
          | V.Committed _ -> ()
          | V.Active | V.Unknown ->
              raise (Write_conflict { key; committed_at = None }))
      | Tid.Stamped ms ->
          let ts = Ts.make ~ttime:ms ~sn:(R.in_page_sn page slot) in
          if Ts.compare ts txn.E.tx_snapshot > 0 then
            raise (Write_conflict { key; committed_at = Some ts }))

type write_kind = W_insert | W_update | W_upsert | W_delete

(* --- buffered ingestion --------------------------------------------------- *)

(* Write-optimized message path: instead of descending the router per
   row, a write appends one message to the table's buffer page (a WAL-
   logged O(1) operation) and a flush later applies a whole run of
   messages to each data page in a single visit — one descent, one
   stamping pass and one logged after-image per page instead of one per
   row.  Messages are applied in arrival order with the same primitives
   the per-row path uses, so buffered and unbuffered executions build
   identical structures and return identical results. *)

(* The table's message-buffer page, creating it (and persisting its id
   in the catalog, redo-only like other structure modifications) on
   first use. *)
let buffer_page eng ti =
  if ti.Catalog.ti_buf_root = 0 then begin
    ti.Catalog.ti_buf_root <-
      E.alloc_page eng ~ptype:P.P_msg_buffer ~level:0 ~table_id:ti.Catalog.ti_id;
    Catalog.store_redo_only (E.catalog_exn eng) ti
  end;
  ti.Catalog.ti_buf_root

(* Every message in [msgs] destined for the router range [low, high) —
   one run, applied in one page visit.  Pages are independent, so pulling
   a page's messages out of the global arrival order is safe as long as
   the per-page order is preserved (partition keeps it): each page sees
   exactly the version sequence a per-row execution would have built. *)
let partition_run msgs ~low ~high =
  List.partition (fun m -> in_range m.Ingest.m_key ~low ~high) msgs

(* Apply a run of messages to data page [pid]: stamp once, index the
   version-chain heads once, then plan and apply each message in arrival
   order — byte-identical page mutations to the per-row path — and log
   the whole run as one redo-only [Op_version_batch].  Application
   precedes logging because each insert must be on the page before the
   next can be planned; transactional undo hangs off the messages'
   [Op_msg_append] records, never off the batch.  Returns the suffix
   that did not fit. *)
let apply_run eng ti ~pid run =
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      let index = Hashtbl.create 32 in
      V.iter_current page (Hashtbl.replace index);
      let batch = ref [] in
      let applied = ref 0 in
      let rec apply = function
        | [] -> []
        | ({ Ingest.m_key = key; _ } as m) :: rest as pending -> (
            match
              V.plan_insert_with_pred page
                ~pred:(Hashtbl.find_opt index key)
                ~key ~payload:m.Ingest.m_payload ~tid:m.Ingest.m_tid
                ~delete_stub:(m.Ingest.m_kind = Ingest.M_delete)
            with
            | None -> pending
            | Some pi ->
                V.apply_insert page pi;
                batch :=
                  (pi.V.pi_slot, pi.V.pi_body, pi.V.pi_pred_slot, pi.V.pi_pred_old_flags)
                  :: !batch;
                Hashtbl.replace index key pi.V.pi_slot;
                incr applied;
                apply rest)
      in
      let leftover = apply run in
      if !applied > 0 then begin
        (* with per-row revisits gone, flush visits are where trigger-four
           stamping happens: one scan covers both the already-committed
           older versions and this run's committed arrivals, keeping the
           PTT collectible *)
        E.stamp eng fr;
        E.log_applied eng fr
          (LR.Op_version_batch
             { inserts = List.rev !batch; table_id = ti.Catalog.ti_id });
        let m = eng.E.metrics in
        Mx.incr m ingest_flush_pages;
        Mx.observe m h_ingest_flush_run !applied
      end;
      leftover)

(* Drain-time message application: route each run to its page, splitting
   full pages at the deferred clock the overflowing message recorded —
   the time an unbuffered descent would have chosen.  The budget mirrors
   the per-row path's bounded split retries. *)
let apply_messages eng ti msgs =
  let rec go budget msgs =
    match msgs with
    | [] -> ()
    | { Ingest.m_key = key; _ } :: _ ->
        if budget = 0 then
          raise
            (Page_overflow
               (Printf.sprintf "table %s: cannot make room (flush)"
                  ti.Catalog.ti_name));
        let pid, low, high = locate eng ti ~key in
        let run, rest = partition_run msgs ~low ~high in
        let leftover = apply_run eng ti ~pid run in
        (match leftover with
        | [] -> go 4 rest
        | m :: _ ->
            Mx.incr eng.E.metrics ingest_deferred_splits;
            split_data_page eng ti ~pid ~low ~high
              ~split_at:(Ts.succ m.Ingest.m_clock);
            let progressed = List.length leftover < List.length run in
            go (if progressed then 4 else budget - 1) (leftover @ rest))
  in
  go 4 msgs

(* Drain the table's buffer page [pid]: read its live cells in slot
   (arrival) order, truncate it with a redo-only reformat, then apply
   every message downward (recovery replays the same sequence).  One
   atomic WAL group: a crash that kept the batches but not the
   truncation would apply the still-buffered messages a second time,
   and the duplicates can overflow a page into a deferred split dated
   after versions it leaves on the current page.  Truncating first
   leaves nothing for a nested flush to apply. *)
let drain eng ti pid =
  Imdb_wal.Wal.atomically eng.E.wal @@ fun () ->
  Imdb_obs.Tracer.with_span eng.E.tracer "ingest.flush" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
  let msgs =
    BP.with_page eng.E.pool pid (fun fr ->
        let page = BP.bytes fr in
        let msgs =
          P.fold_live page ~init:[] ~f:(fun acc slot ->
              Ingest.decode_msg (P.read_cell page slot) :: acc)
        in
        E.exec_op eng fr ~undoable:false
          (LR.Op_format
             { page_type = P.P_msg_buffer; table_id = ti.Catalog.ti_id; level = 0 });
        List.rev msgs)
  in
  let n = List.length msgs in
  apply_messages eng ti msgs;
  let m = eng.E.metrics in
  Mx.incr m ingest_flushes;
  Mx.add m ingest_flush_messages n;
  Imdb_obs.Tracer.add_attr sp "messages" string_of_int n

(* Readers call this before descending, so buffered state is never
   visible — a buffered engine answers every query exactly like an
   unbuffered one. *)
let flush_ingest eng ti =
  let pid = ti.Catalog.ti_buf_root in
  if pid <> 0 && BP.with_page eng.E.pool pid (fun fr -> P.live_count (BP.bytes fr) > 0)
  then drain eng ti pid

(* Read-only presence probe for the buffered existence checks — the
   buffer page answers for buffered keys; this answers for everything
   already on pages. *)
let probe_exists eng ti ~key =
  let pid = locate_page eng ti ~key in
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      match V.find_current page ~key with
      | None -> false
      | Some slot -> R.in_page_flags page slot land R.f_delete_stub = 0)

(* The kind of the newest buffered message for [key]: live cells
   scanned from the highest slot down, i.e. newest first. *)
let newest_buffered page ~key =
  P.rfind_map_cell page (fun off ->
      if Ingest.is_for_key page ~key off then Some (Ingest.kind_at page off) else None)

(* The buffered write: one message append in place of a page descent.
   Existence semantics (INSERT/UPDATE/DELETE) are decided from the
   newest buffered message for the key (a delete means "absent", any
   other kind "present"), falling back to the pages; the append itself
   is an undoable WAL record, so aborts remove the message (and, after a
   flush, any applied version) and a committed buffer survives
   crashes. *)
let write_buffered eng txn ti ~key ~payload ~kind =
  let pid = buffer_page eng ti in
  let check_exists page =
    match kind with
    | W_upsert -> ()
    | W_insert | W_update | W_delete -> (
        let exists =
          match newest_buffered page ~key with
          | Some k -> k <> Ingest.M_delete
          | None -> probe_exists eng ti ~key
        in
        match kind with
        | W_insert when exists -> raise (Duplicate_key key)
        | (W_update | W_delete) when not exists -> raise (No_such_key key)
        | _ -> ())
  in
  let body =
    Ingest.encode_msg
      {
        Ingest.m_tid = txn.E.tx_tid;
        m_kind =
          (match kind with
          | W_insert -> Ingest.M_insert
          | W_update -> Ingest.M_update
          | W_upsert -> Ingest.M_upsert
          | W_delete -> Ingest.M_delete);
        m_key = key;
        m_payload = (if kind = W_delete then "" else payload);
        m_clock = Imdb_clock.Clock.last_issued eng.E.clock;
      }
  in
  (* Append at a fresh slot, so slot order is arrival order (rollbacks
     leave tombstones, reclaimed at the next reformat).  [None] when the
     page is full, else whether it now holds [ingest_buffer_rows] live
     messages. *)
  let append fr =
    let page = BP.bytes fr in
    if P.free_space page < Bytes.length body + 4 then None
    else begin
      let slot = P.slot_count page in
      E.with_txn eng txn (fun () ->
          E.exec_op eng fr ~undoable:true
            (LR.Op_msg_append { slot; body; table_id = ti.Catalog.ti_id }));
      let rows = eng.E.config.E.ingest_buffer_rows in
      Some (slot + 1 >= rows && P.live_count page >= rows)
    end
  in
  let full =
    match
      BP.with_page eng.E.pool pid (fun fr ->
          check_exists (BP.bytes fr);
          append fr)
    with
    | Some full -> full
    | None -> (
        (* drain even with no live message: the dead slots of rolled-back
           appends alone can fill the page *)
        drain eng ti pid;
        match BP.with_page eng.E.pool pid append with
        | Some full -> full
        | None ->
            raise
              (Page_overflow
                 (Printf.sprintf "table %s: message larger than the buffer page"
                    ti.Catalog.ti_name)))
  in
  Imdb_tstamp.Vtt.incr_ref (E.vtt eng) txn.E.tx_tid;
  E.note_write eng txn ~table_id:ti.Catalog.ti_id ~key;
  Mx.incr eng.E.metrics ingest_appends;
  if full then flush_ingest eng ti

(* Insert a new version of [key] (a delete stub for [W_delete]).  SQL
   semantics: INSERT requires absence, UPDATE/DELETE require presence,
   upsert accepts both. *)
let write_version eng txn ti ~key ~payload ~kind =
  E.check_running txn;
  Imdb_obs.Tracer.with_span eng.E.tracer "txn.update" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
  E.lock_record eng txn ~table_id:ti.Catalog.ti_id ~key Imdb_lock.Lock_manager.X;
  if
    E.ingest_enabled eng ti
    && match txn.E.tx_isolation with E.Serializable -> true | _ -> false
  then write_buffered eng txn ti ~key ~payload ~kind
  else begin
  (* buffered state must land before a per-row descent relies on page
     contents (existence checks, SI first-committer-wins validation) *)
  flush_ingest eng ti;
  let rec attempt budget =
    if budget = 0 then
      raise (Page_overflow (Printf.sprintf "table %s: cannot make room" ti.Catalog.ti_name));
    let pid = locate_page eng ti ~key in
    let full =
      BP.with_page eng.E.pool pid (fun fr ->
          let page = BP.bytes fr in
          (* the paper's third stamping trigger: updating a
             non-timestamped version timestamps the existing versions of
             that record *)
          E.stamp_record eng ~key fr;
          (* one predecessor probe serves the SI validation, the
             existence check and the insert plan.  Checks come before the
             plan so a doomed write (duplicate insert, update of a
             missing key) mutates nothing — in particular it must not
             split a full page it was never going to write, which would
             make the structure diverge from a buffered execution (whose
             probe-based existence checks never make room either) *)
          let pred = V.find_current page ~key in
          (match txn.E.tx_isolation with
          | E.Snapshot_isolation when pred <> None ->
              validate_si_write eng txn page ~key
          | E.Snapshot_isolation
            when Ts.compare (P.split_time page) txn.E.tx_snapshot > 0 ->
                  (* no current version here, but the page time-split
                     after our snapshot: a competing deletion may have
                     moved the key's whole chain (ending in a stub) to
                     history.  First-committer-wins must still see it. *)
                  let rec probe pid' =
                    if pid' <> P.no_page then
                      let hp = (E.history_page eng pid').E.hi_image in
                      let newest =
                        List.fold_left
                          (fun best slot ->
                            match (R.in_page_timestamp hp slot, best) with
                            | Some ts, Some b when Ts.compare b ts >= 0 -> best
                            | Some ts, _ -> Some ts
                            | None, _ -> best)
                          None (V.all_versions_of hp ~key)
                      in
                      match newest with
                      | Some ts ->
                          if Ts.compare ts txn.E.tx_snapshot > 0 then
                            raise (Write_conflict { key; committed_at = Some ts })
                      | None ->
                          (* keep walking only through ranges that can
                             still hold post-snapshot versions *)
                          if Ts.compare (P.split_time hp) txn.E.tx_snapshot > 0
                          then probe (P.history_pointer hp)
                  in
                  probe (P.history_pointer page)
          | _ -> ());
          let exists =
            match pred with
            | Some slot -> R.in_page_flags page slot land R.f_delete_stub = 0
            | None -> false
          in
          (match kind with
          | W_insert when exists -> raise (Duplicate_key key)
          | (W_update | W_delete) when not exists -> raise (No_such_key key)
          | _ -> ());
          match
            V.plan_insert_with_pred page ~pred ~key ~payload ~tid:txn.E.tx_tid
              ~delete_stub:(kind = W_delete)
          with
          | None -> true
          | Some pi ->
              E.with_txn eng txn (fun () ->
                  E.exec_op eng fr ~undoable:true
                    (LR.Op_version_insert
                       {
                         slot = pi.V.pi_slot;
                         body = pi.V.pi_body;
                         pred_slot = pi.V.pi_pred_slot;
                         pred_old_flags = pi.V.pi_pred_old_flags;
                         table_id = ti.Catalog.ti_id;
                       }));
              Imdb_tstamp.Vtt.incr_ref (E.vtt eng) txn.E.tx_tid;
              E.note_write eng txn ~table_id:ti.Catalog.ti_id ~key;
              false)
    in
    if full then begin
      (* recompute the page's router bounds only on the (rare) split path *)
      let pid', low, high = locate eng ti ~key in
      split_data_page eng ti ~pid:pid' ~low ~high;
      attempt (budget - 1)
    end
  in
  attempt 4
  end

(* --- conventional writes --------------------------------------------------- *)

let conv_write eng txn ti ~key ~payload ~kind =
  E.check_running txn;
  E.lock_record eng txn ~table_id:ti.Catalog.ti_id ~key Imdb_lock.Lock_manager.X;
  let tree = conv_tree eng ti in
  let exists = Imdb_btree.Btree.mem tree ~key in
  (match kind with
  | W_insert when exists -> raise (Duplicate_key key)
  | (W_update | W_delete) when not exists -> raise (No_such_key key)
  | _ -> ());
  E.with_txn eng txn (fun () ->
      match kind with
      | W_delete -> ignore (Imdb_btree.Btree.delete ~undoable:true tree ~key)
      | W_insert | W_update | W_upsert ->
          Imdb_btree.Btree.insert tree ~key ~value:(Bytes.of_string payload));
  E.note_write eng txn ~table_id:ti.Catalog.ti_id ~key

(* --- public write API ------------------------------------------------------ *)

let insert eng txn ti ~key ~payload =
  if is_versioned ti then write_version eng txn ti ~key ~payload ~kind:W_insert
  else conv_write eng txn ti ~key ~payload ~kind:W_insert

let update eng txn ti ~key ~payload =
  if is_versioned ti then write_version eng txn ti ~key ~payload ~kind:W_update
  else conv_write eng txn ti ~key ~payload ~kind:W_update

let upsert eng txn ti ~key ~payload =
  if is_versioned ti then write_version eng txn ti ~key ~payload ~kind:W_upsert
  else conv_write eng txn ti ~key ~payload ~kind:W_upsert

let delete eng txn ti ~key =
  if is_versioned ti then write_version eng txn ti ~key ~payload:"" ~kind:W_delete
  else conv_write eng txn ti ~key ~payload:"" ~kind:W_delete

(* Enable snapshot versioning on a conventional table (the paper §4.1:
   "conventional tables can still make use of our prototype for
   supporting snapshot versions ... by enabling snapshot isolation using
   an Alter Table statement").

   The rows migrate from the in-place B-tree into versioned data pages as
   versions of the ALTER transaction — their visible history begins at
   the conversion's commit time, which is when versioning semantics
   begin.  The old B-tree's pages are leaked (bounded, like other aborted
   structure builds).  Runs inside the caller's DDL transaction. *)
let enable_snapshot eng ti =
  if ti.Catalog.ti_mode <> Catalog.Conventional then
    invalid_arg (Printf.sprintf "table %s is already versioned" ti.Catalog.ti_name);
  let txn =
    match eng.E.cur_txn with
    | Some t -> t
    | None -> invalid_arg "Table.enable_snapshot: no transaction"
  in
  let id = ti.Catalog.ti_id in
  let old_tree = conv_tree eng ti in
  let rt =
    Imdb_btree.Btree.create ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
      ~io:(E.btree_io_for eng id) ~table_id:id
      ~name:(ti.Catalog.ti_name ^ ".router") ()
  in
  let first_page = E.alloc_page eng ~ptype:P.P_data ~level:0 ~table_id:id in
  Imdb_btree.Btree.insert ~undoable:false rt ~key:"" ~value:(page_id_value first_page);
  (* flip the catalog entry first so the write path below routes through
     the new structure; [ti] itself is left untouched so an aborted ALTER
     can restore the cache *)
  let converted =
    {
      ti with
      Catalog.ti_mode = Catalog.Snapshot_table;
      Catalog.ti_root = Imdb_btree.Btree.root rt;
    }
  in
  Catalog.store (E.catalog_exn eng) converted;
  E.note_write eng txn ~table_id:Meta.catalog_table_id ~key:ti.Catalog.ti_name;
  E.register_table eng converted;
  (* migrate the rows as versions of the ALTER transaction *)
  let moved = ref 0 in
  Imdb_btree.Btree.iter old_tree (fun key value ->
      incr moved;
      write_version eng txn converted ~key ~payload:(Bytes.to_string value)
        ~kind:W_upsert);
  !moved


(* --- reads ------------------------------------------------------------------ *)

(* Search the time-split chain (or the TSB index) for the page covering
   time [t], starting from the current page [fr]'s history pointer.  The
   walk is the paper's measured access path; the TSB jump is the indexed
   one. *)
let historical_page eng ti ~key ~t ~current_page =
  (* asof.pages_visited counts actual pages visited on the temporal
     access path: one per chain page examined, one per TSB target found.
     (The chain walk used to double-count its entry page.) *)
  (* walk the chain one page at a time, reading only the two header
     fields — from the history memo, or from a frame pinned just for the
     read — so a deep walk never holds more than one frame (the chain can
     exceed the buffer pool) and never decodes a page it does not scan *)
  let rec walk pid =
    if pid = P.no_page then None
    else begin
      Mx.incr eng.E.metrics asof_pages;
      let split, next = E.history_link eng pid in
      if Ts.compare t split >= 0 then Some pid else walk next
    end
  in
  match tsb eng ti with
  | Some index -> (
      match Imdb_tsb.Tsb.find index ~key ~ts:t with
      | Some pid ->
          Mx.incr eng.E.metrics asof_pages;
          Some pid
      | None ->
          (* A miss normally means the key has no version that old — but
             the chain, not the index, is ground truth, so confirm by
             walking it rather than silently answering "absent".  On a
             true miss the walk falls off the end; the indexed hit path
             above stays O(depth). *)
          walk (P.history_pointer current_page))
  | None -> walk (P.history_pointer current_page)

(* Visible payload of [key] at time [t] for transaction [txn] (own writes
   visible).  [None] = key absent at [t]. *)
let read_versioned_at eng txn ti ~key ~t =
  let pid = locate_page eng ti ~key in
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      E.stamp_record eng ~key fr;
      (* own uncommitted writes win: the chain head is ours if we wrote *)
      let own =
        match V.find_current page ~key with
        | Some slot -> (
            match R.in_page_ttime page slot with
            | Tid.Unstamped tid when Tid.equal tid txn.E.tx_tid ->
                if R.in_page_flags page slot land R.f_delete_stub <> 0 then Some None
                else Some (Some (R.in_page_payload page slot))
            | _ -> None)
        | None -> None
      in
      match own with
      | Some result -> result
      | None ->
          let lookup_in page' =
            Mx.incr eng.E.metrics asof_versions;
            match V.find_stamped_as_of page' ~key ~asof:t with
            | None -> None
            | Some slot ->
                if R.in_page_flags page' slot land R.f_delete_stub <> 0 then None
                else Some (R.in_page_payload page' slot)
          in
          if Ts.compare t (P.split_time page) >= 0 then lookup_in page
          else (
            match historical_page eng ti ~key ~t ~current_page:page with
            | Some hpid -> lookup_in (E.history_page eng hpid).E.hi_image
            | None -> None))

(* Current-state read under 2PL (the caller holds the S lock). *)
let read_current eng ti ~key =
  let pid = locate_page eng ti ~key in
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      E.stamp_record eng ~key fr;
      match V.find_current page ~key with
      | None -> None
      | Some slot ->
          if R.in_page_flags page slot land R.f_delete_stub <> 0 then None
          else Some (R.in_page_payload page slot))

(* Lock before flushing: a reader that parks on the lock must see the
   writes its blocker buffers while it is parked. *)
let read eng txn ti ~key =
  E.check_running txn;
  E.lock_record eng txn ~table_id:ti.Catalog.ti_id ~key Imdb_lock.Lock_manager.S;
  flush_ingest eng ti;
  match ti.Catalog.ti_mode with
  | Catalog.Conventional ->
      Option.map Bytes.to_string (Imdb_btree.Btree.find (conv_tree eng ti) ~key)
  | Catalog.Immortal | Catalog.Snapshot_table -> (
      match txn.E.tx_isolation with
      | E.Serializable -> read_current eng ti ~key
      | E.Snapshot_isolation -> read_versioned_at eng txn ti ~key ~t:txn.E.tx_snapshot
      | E.As_of t ->
          if ti.Catalog.ti_mode <> Catalog.Immortal then
            raise (Not_versioned (ti.Catalog.ti_name ^ ": AS OF needs an IMMORTAL table"));
          read_versioned_at eng txn ti ~key ~t)

(* --- scans ------------------------------------------------------------------ *)

(* Intersect the router ranges with a requested key window
   [lo, hi) — the page set a range scan must visit, with the effective
   bounds to filter keys inside each page. *)
let clipped_ranges eng ti ?(lo = "") ?hi () =
  List.filter_map
    (fun (low, high, pid) ->
      let low' = if String.compare lo low > 0 then lo else low in
      let high' =
        match (hi, high) with
        | None, h -> h
        | (Some _ as h), None -> h
        | Some a, Some b -> Some (if String.compare a b < 0 then a else b)
      in
      let nonempty =
        match high' with None -> true | Some h -> String.compare low' h < 0
      in
      if nonempty then Some (low', high', pid) else None)
    (router_ranges eng ti)

(* Scan of the current state (2PL path), optionally bounded to the key
   window [lo, hi).  The table lock comes before the ingest flush, as in
   [read]. *)
let scan_current eng ?(lo = "") ?hi txn ti f =
  E.check_running txn;
  (match txn.E.tx_isolation with
  | E.Serializable ->
      E.lock_resource eng txn
        (Imdb_lock.Lock_manager.Table ti.Catalog.ti_id)
        Imdb_lock.Lock_manager.S
  | E.Snapshot_isolation | E.As_of _ -> ());
  flush_ingest eng ti;
  match ti.Catalog.ti_mode with
  | Catalog.Conventional ->
      (* Btree.iter's upto is inclusive; hi is exclusive — filter. *)
      Imdb_btree.Btree.iter ~from:lo ?upto:hi (conv_tree eng ti) (fun k v ->
          if in_range k ~low:lo ~high:hi then f k (Bytes.to_string v))
  | Catalog.Immortal | Catalog.Snapshot_table ->
      List.iter
        (fun (low, high, pid) ->
          BP.with_page eng.E.pool pid (fun fr ->
              let page = BP.bytes fr in
              E.stamp eng fr;
              List.iter
                (fun (key, slot) ->
                  if
                    in_range key ~low ~high
                    && R.in_page_flags page slot land R.f_delete_stub = 0
                  then f key (R.in_page_payload page slot))
                (V.current_slots page)))
        (clipped_ranges eng ti ~lo ?hi ())

(* One router range of the serial temporal scan: the visible (key,
   payload) pairs of window [low, high) at time [t], sorted.  Optionally
   overlaid with [own]'s uncommitted writes (snapshot-isolation scans must
   see the transaction's own changes).  The page covering [t] is the
   current page itself when t >= its split time, otherwise the chain/TSB
   target.  Either page is read through its version directory: the
   memo's for a history page, one built for this call for the mutable
   current page. *)
let scan_range eng ?own ti ~t (low, high, pid) =
  let pending = ref [] in
  let f key payload = pending := (key, payload) :: !pending in
  (* own uncommitted state of a key: present/absent/not-written-by-us *)
  let own_state page key =
    match own with
    | None -> `Not_mine
    | Some txn -> (
        match V.find_current page ~key with
        | Some slot when R.in_page_ttime page slot = Tid.Unstamped txn.E.tx_tid ->
            if R.in_page_flags page slot land R.f_delete_stub <> 0 then `Deleted
            else `Mine (R.in_page_payload page slot)
        | Some _ | None -> `Not_mine)
  in
  BP.with_page eng.E.pool pid (fun fr ->
      let page = BP.bytes fr in
      E.stamp eng fr;
      Mx.incr eng.E.metrics asof_pages;
      let current_dir = lazy (V.directory page) in
      (* overlay: keys written by [own] in this range, decided from the
         current page regardless of which page serves time t *)
      let overlaid = Hashtbl.create 4 in
      (match own with
      | None -> ()
      | Some _ ->
          Array.iter
            (fun key ->
              if in_range key ~low ~high then
                match own_state page key with
                | `Mine payload ->
                    Hashtbl.replace overlaid key ();
                    f key payload
                | `Deleted -> Hashtbl.replace overlaid key ()
                | `Not_mine -> ())
            (Lazy.force current_dir).V.vd_keys);
      let scan_page page' dir =
        Array.iteri
          (fun i key ->
            if in_range key ~low ~high && not (Hashtbl.mem overlaid key) then begin
              Mx.incr eng.E.metrics asof_versions;
              match V.stamped_as_of page' dir.V.vd_slots.(i) ~asof:t with
              | Some slot when R.in_page_flags page' slot land R.f_delete_stub = 0 ->
                  f key (R.in_page_payload page' slot)
              | Some _ | None -> ()
            end)
          dir.V.vd_keys
      in
      if Ts.compare t (P.split_time page) >= 0 then scan_page page (Lazy.force current_dir)
      else
        match historical_page eng ti ~key:low ~t ~current_page:page with
        | Some hpid ->
            let h = E.history_page eng hpid in
            scan_page h.E.hi_image (Lazy.force h.E.hi_dir)
        | None -> ());
  (* directory keys come in order; only an overlay interleaves *)
  match own with None -> List.rev !pending | Some _ -> List.sort compare !pending

(* Core of temporal scans: every clipped router range in key order, each
   range's rows sorted. *)
let scan_versioned_at eng ?own ?lo ?hi ti ~t emit =
  Imdb_obs.Tracer.with_span eng.E.tracer "scan.asof" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
  List.iter
    (fun range -> List.iter (fun (k, p) -> emit k p) (scan_range eng ?own ti ~t range))
    (clipped_ranges eng ti ?lo ?hi ())

(* AS OF scan at time [t] (the paper's Section 5.2 experiment),
   optionally bounded to a key window — the access path of the paper's
   own example, [SELECT * FROM MovingObjects WHERE Oid < 10] under
   [BEGIN TRAN AS OF ...]. *)
let scan_as_of eng ?lo ?hi txn ti ~t f =
  E.check_running txn;
  if ti.Catalog.ti_mode <> Catalog.Immortal then
    raise (Not_versioned (ti.Catalog.ti_name ^ ": AS OF needs an IMMORTAL table"));
  flush_ingest eng ti;
  scan_versioned_at eng ?lo ?hi ti ~t f

(* Isolation-aware scan: what SELECT sees.  Serializable transactions
   scan the locked current state; snapshot transactions scan their
   snapshot (own writes visible); AS OF transactions scan history. *)
let scan eng ?lo ?hi txn ti f =
  E.check_running txn;
  match (ti.Catalog.ti_mode, txn.E.tx_isolation) with
  | Catalog.Conventional, _ | _, E.Serializable -> scan_current eng ?lo ?hi txn ti f
  | _, E.Snapshot_isolation ->
      flush_ingest eng ti;
      scan_versioned_at eng ~own:txn ?lo ?hi ti ~t:txn.E.tx_snapshot f
  | _, E.As_of t -> scan_as_of eng ?lo ?hi txn ti ~t f

(* Time travel: the full version history of [key], newest first, as
   (timestamp, payload option) — None marks a deletion.  The current page
   is pinned and stamped; the chain behind it is read through the history
   memo, finding [key] in each page through the page's directory (a walk
   reads every chain page, so it builds the ones still missing). *)
let history eng txn ti ~key =
  E.check_running txn;
  if ti.Catalog.ti_mode <> Catalog.Immortal then
    raise (Not_versioned (ti.Catalog.ti_name ^ ": history needs an IMMORTAL table"));
  flush_ingest eng ti;
  Imdb_obs.Tracer.with_span eng.E.tracer "history.walk" @@ fun sp ->
  Imdb_obs.Tracer.add_attr sp "table" Fun.id ti.Catalog.ti_name;
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  (* collect [key]'s committed versions ([slots]) in one page; returns the
     page's history pointer *)
  let collect page slots =
    Array.iter
      (fun slot ->
        match R.in_page_timestamp page slot with
        | Some ts ->
            (* redundant copies from time splits appear in two pages;
               dedupe on the start timestamp, unique per version *)
            if not (Hashtbl.mem seen ts) then begin
              Hashtbl.add seen ts ();
              let v =
                if R.in_page_flags page slot land R.f_delete_stub <> 0 then None
                else Some (R.in_page_payload page slot)
              in
              out := (ts, v) :: !out
            end
        | None -> () (* uncommitted: not part of history *))
      slots;
    P.history_pointer page
  in
  let first =
    BP.with_page eng.E.pool (locate_page eng ti ~key) (fun fr ->
        E.stamp eng fr;
        let page = BP.bytes fr in
        collect page (Array.of_list (V.all_versions_of page ~key)))
  in
  let rec walk pid =
    if pid <> P.no_page then begin
      let h = E.history_page eng pid in
      walk (collect h.E.hi_image (V.directory_versions (Lazy.force h.E.hi_dir) ~key))
    end
  in
  walk first;
  List.sort (fun (a, _) (b, _) -> Ts.compare b a) !out

(* --- maintenance hooks used by commit (eager timestamping) ------------------ *)

(* Stamp every version the committing transaction wrote, *logging* each
   patch — the eager strategy of Section 2.2, implemented for the
   lazy-vs-eager ablation: [Vpage.stamp] with a resolver that knows only
   this commit and an [on_stamp] that logs the stamped tail bytes.
   Revisits pages by key (they may have split since the write, possibly
   causing extra I/O: the measured drawback). *)
let eager_stamp_writes eng txn ~ts =
  let src = Bytes.create 12 in
  Imdb_util.Codec.set_i64 src 0 (Ts.ttime ts);
  Imdb_util.Codec.set_u32 src 8 (Ts.sn ts);
  let own tid = if Tid.equal tid txn.E.tx_tid then V.Committed ts else V.Active in
  List.iter
    (fun (table_id, key) ->
      match E.table_by_id eng table_id with
      | Some ti when is_versioned ti ->
          let pid, _, _ = locate eng ti ~key in
          BP.with_page eng.E.pool pid (fun fr ->
              let page = BP.bytes fr in
              ignore
                (V.stamp_record ~metrics:eng.E.metrics ~key page ~resolve:own
                   ~on_stamp:(fun slot tid ->
                     let at = R.tail_offset_in_body page slot + 2 in
                     E.exec_op eng fr ~undoable:false (LR.Op_patch { slot; at; src });
                     Imdb_tstamp.Vtt.note_stamped (E.vtt eng) tid
                       ~end_of_log:(Imdb_wal.Wal.next_lsn eng.E.wal))))
      | _ -> ())
    txn.E.tx_writes
