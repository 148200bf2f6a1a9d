(* Split-store baseline: the storage organization the paper argues
   *against* (Section 6.3, Postgres; also the stratum/layered designs of
   [35]).

   Current versions live in one B-tree; on every update or delete the
   displaced version is moved to a *separate* history B-tree keyed by
   (key, start-timestamp).  Reading the current state touches only the
   current store — but an AS OF read must in general consult both stores,
   and a full AS OF scan must merge them, because "otherwise it is
   impossible, in general, to determine whether the query has seen the
   record version with the largest timestamp less than the as of time".
   The double traversal is the measured cost of the design; Immortal DB's
   integrated storage avoids it.

   Timestamping piggybacks on the engine's machinery: current rows carry
   the 8-byte Ttime field + 4-byte SN (TID until resolved, then the commit
   timestamp); displacement resolves the old version's timestamp through
   the VTT/PTT before archiving it, so history entries are always
   stamped. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module E = Engine

let asof_versions = Imdb_obs.Metrics.counter_of Imdb_obs.Metrics.asof_versions

exception Unresolved_tid of Tid.t

type t = {
  eng : E.t;
  current : Imdb_btree.Btree.t;
  history : Imdb_btree.Btree.t;
  table_id : int;
}

(* --- row codecs ---------------------------------------------------------- *)

(* current-store value: ttime_field(8) | sn(4) | stub(1) | payload *)
let encode_current ~ttime ~sn ~stub ~payload =
  let b = Bytes.create (13 + String.length payload) in
  Imdb_util.Codec.set_i64 b 0 (Tid.encode_ttime_field ttime);
  Imdb_util.Codec.set_u32 b 8 sn;
  Imdb_util.Codec.set_u8 b 12 (if stub then 1 else 0);
  Imdb_util.Codec.set_string b 13 payload;
  b

let decode_current b =
  let ttime = Tid.decode_ttime_field (Imdb_util.Codec.get_i64 b 0) in
  let sn = Imdb_util.Codec.get_u32 b 8 in
  let stub = Imdb_util.Codec.get_u8 b 12 = 1 in
  let payload = Imdb_util.Codec.get_string b 13 (Bytes.length b - 13) in
  (ttime, sn, stub, payload)

(* history key: length-prefixed user key followed by the big-endian start
   timestamp, so entries of one key sort by time.
   NOTE: the u16 length prefix is little-endian, which is not order
   preserving across different key lengths.  History search only ever
   compares entries of the *same* user key (floor probes are built with
   that exact key), so cross-key order does not matter; within a key, the
   big-endian timestamp gives correct time order. *)
let history_key ~key ~ts =
  let b = Bytes.create (2 + String.length key + Ts.on_disk_size) in
  Imdb_util.Codec.set_u16 b 0 (String.length key);
  Imdb_util.Codec.set_string b 2 key;
  Bytes.set_int64_be b (2 + String.length key) (Ts.ttime ts);
  Bytes.set_int32_be b (2 + String.length key + 8) (Int32.of_int (Ts.sn ts));
  Bytes.to_string b

let split_history_key hk =
  let b = Bytes.of_string hk in
  let klen = Imdb_util.Codec.get_u16 b 0 in
  let key = Imdb_util.Codec.get_string b 2 klen in
  let ttime = Bytes.get_int64_be b (2 + klen) in
  let sn = Int32.to_int (Bytes.get_int32_be b (2 + klen + 8)) land 0xffffffff in
  (key, Ts.make ~ttime ~sn)

(* history value: stub(1) | payload *)
let encode_history ~stub ~payload =
  let b = Bytes.create (1 + String.length payload) in
  Imdb_util.Codec.set_u8 b 0 (if stub then 1 else 0);
  Imdb_util.Codec.set_string b 1 payload;
  b

let decode_history b =
  (Imdb_util.Codec.get_u8 b 0 = 1, Imdb_util.Codec.get_string b 1 (Bytes.length b - 1))

(* --- construction ---------------------------------------------------------- *)

let create eng ~table_id =
  {
    eng;
    current =
      Imdb_btree.Btree.create ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
        ~io:(E.btree_io_for eng table_id) ~table_id ~name:"split.current" ();
    history =
      Imdb_btree.Btree.create ~metrics:eng.E.metrics ~tracer:eng.E.tracer ~pool:eng.E.pool
        ~io:(E.btree_io_for eng table_id) ~table_id ~name:"split.history" ();
    table_id;
  }

(* --- timestamp resolution --------------------------------------------------- *)

let resolve_ts t ~ttime ~sn =
  match ttime with
  | Tid.Stamped ms -> Some (Ts.make ~ttime:ms ~sn)
  | Tid.Unstamped tid -> (
      match Imdb_tstamp.Lazy_stamper.resolve_for_stamping t.eng.E.stamper tid with
      | Imdb_version.Vpage.Committed ts -> Some ts
      | Imdb_version.Vpage.Active -> None
      | Imdb_version.Vpage.Unknown -> raise (Unresolved_tid tid))

(* --- writes ------------------------------------------------------------------ *)

(* Displace the current version of [key] (if any) into the history store,
   then install the new version carrying the writer's TID. *)
let write t txn ~key ~payload ~stub =
  E.check_running txn;
  E.lock_record t.eng txn ~table_id:t.table_id ~key Imdb_lock.Lock_manager.X;
  let vtt = E.vtt t.eng in
  E.with_txn t.eng txn (fun () ->
      let own_row =
        match Imdb_btree.Btree.find t.current ~key with
        | Some old -> (
            let ttime, sn, old_stub, old_payload = decode_current old in
            match resolve_ts t ~ttime ~sn with
            | Some ts ->
                Imdb_obs.Tracer.instant t.eng.E.tracer "splitstore.displace"
                  ~attrs:(fun () -> [ ("ts", Ts.to_string ts) ]);
                Imdb_btree.Btree.insert t.history ~key:(history_key ~key ~ts)
                  ~value:(encode_history ~stub:old_stub ~payload:old_payload);
                (* the displaced row no longer carries its writer's TID *)
                (match ttime with
                | Tid.Unstamped tid ->
                    Imdb_tstamp.Vtt.note_stamped vtt tid
                      ~end_of_log:(Imdb_wal.Wal.next_lsn t.eng.E.wal)
                | Tid.Stamped _ -> ());
                false
            | None ->
                (* own earlier write in this txn: intermediate state,
                   overwritten without archival (same as Immortal DB
                   chaining same-timestamp versions; only the last
                   survives observation) *)
                true)
        | None -> false
      in
      Imdb_btree.Btree.insert t.current ~key
        ~value:
          (encode_current ~ttime:(Tid.Unstamped txn.E.tx_tid) ~sn:0 ~stub ~payload);
      (* the current row carries the TID until a later writer displaces
         it: the mapping must outlive the commit *)
      if not own_row then Imdb_tstamp.Vtt.incr_ref vtt txn.E.tx_tid);
  E.note_write t.eng txn ~table_id:t.table_id ~key

let insert t txn ~key ~payload = write t txn ~key ~payload ~stub:false
let update = insert
let delete t txn ~key = write t txn ~key ~payload:"" ~stub:true

(* --- reads ------------------------------------------------------------------- *)

let read_current t txn ~key =
  E.check_running txn;
  E.lock_record t.eng txn ~table_id:t.table_id ~key Imdb_lock.Lock_manager.S;
  match Imdb_btree.Btree.find t.current ~key with
  | None -> None
  | Some v ->
      let _, _, stub, payload = decode_current v in
      if stub then None else Some payload

(* AS OF read: probe the current store first; when the current version
   postdates [ts], fall through to the history store — the double access
   the paper critiques. *)
let read_as_of t txn ~key ~ts =
  E.check_running txn;
  let from_history () =
    Imdb_obs.Metrics.incr t.eng.E.metrics asof_versions;
    match Imdb_btree.Btree.find_floor t.history ~key:(history_key ~key ~ts) with
    | None -> None
    | Some (hk, v) ->
        let k', _ = split_history_key hk in
        if String.equal k' key then
          let stub, payload = decode_history v in
          if stub then None else Some payload
        else None
  in
  match Imdb_btree.Btree.find t.current ~key with
  | None -> from_history ()
  | Some v -> (
      let ttime, sn, stub, payload = decode_current v in
      match resolve_ts t ~ttime ~sn with
      | Some start when Ts.compare start ts <= 0 -> if stub then None else Some payload
      | Some _ | None -> from_history ())

(* Full AS OF scan: must merge both stores (every current key whose
   version postdates [ts], and every key now absent from the current
   store, may have its visible version in history). *)
let scan_as_of t txn ~ts f =
  E.check_running txn;
  ignore txn;
  (* the double traversal the paper critiques, visible as one span *)
  Imdb_obs.Tracer.with_span t.eng.E.tracer "splitstore.scan_asof" @@ fun _ ->
  let emitted = Hashtbl.create 64 in
  (* pass 1: current store *)
  Imdb_btree.Btree.iter t.current (fun key v ->
      let ttime, sn, stub, payload = decode_current v in
      match resolve_ts t ~ttime ~sn with
      | Some start when Ts.compare start ts <= 0 ->
          Hashtbl.replace emitted key ();
          if not stub then f key payload
      | Some _ | None -> ());
  (* pass 2: history store — a full traversal, grouping by key *)
  let best : (string, Ts.t * bool * string) Hashtbl.t = Hashtbl.create 64 in
  Imdb_btree.Btree.iter t.history (fun hk v ->
      let key, start = split_history_key hk in
      if (not (Hashtbl.mem emitted key)) && Ts.compare start ts <= 0 then begin
        Imdb_obs.Metrics.incr t.eng.E.metrics asof_versions;
        let stub, payload = decode_history v in
        match Hashtbl.find_opt best key with
        | Some (prev, _, _) when Ts.compare prev start >= 0 -> ()
        | _ -> Hashtbl.replace best key (start, stub, payload)
      end);
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) best [] |> List.sort compare in
  List.iter
    (fun key ->
      match Hashtbl.find_opt best key with
      | Some (_, stub, payload) -> if not stub then f key payload
      | None -> ())
    keys

let history_count t = Imdb_btree.Btree.count t.history
