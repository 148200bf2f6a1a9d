(* One benchmark run: the samples its workload collects, the registry and
   device deltas of its measured phases, and, in a traced run, the
   attribution of every span to a layer.  Every workload reports the same
   metric set through [end_to_end] and [per_layer], so each metric means
   the same thing on every workload.

   A run is a sequence of rounds, each on a fresh database with inputs
   drawn from the seed, and reports each end-to-end metric as its median
   over rounds.
   Every timing of a round is scaled to the reference speed of [Speed]
   by the round's factor, except the metrics a workload lists in
   [measured], which it reports as measured. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module T = Imdb_obs.Tracer

(* Samples of one round: one database from set-up to close. *)
type round = {
  mutable setup_s : float;
  mutable load_rate : float;  (* rows/s *)
  mutable commit_us : float list;  (* immortal-table txns of the commit phase *)
  mutable conv_us : float list;  (* conventional-table txns of the commit phase *)
  mutable commit_txns : int;
  mutable commit_s : float;
  mutable recovery_ms : float;
  mutable point_us : float list;
  mutable scan_ms : float list;
  mutable history_us : float list;
  mutable written_bytes : int;  (* log + data-page bytes of the write phases *)
  mutable written_txns : int;
  mutable space : float;  (* bytes stored per user byte *)
}

let fresh_round () =
  {
    setup_s = 0.;
    load_rate = 0.;
    commit_us = [];
    conv_us = [];
    commit_txns = 0;
    commit_s = 0.;
    recovery_ms = 0.;
    point_us = [];
    scan_ms = [];
    history_us = [];
    written_bytes = 0;
    written_txns = 0;
    space = 0.;
  }

type t = {
  seed : int;
  seconds : float;
  traced : bool;
  probe : Probe.t;
  dev : Probe.counts;  (* device traffic of the measured phases *)
  counters : (string, int) Hashtbl.t;  (* registry deltas of the measured phases *)
  hists : (string, int * int) Hashtbl.t;  (* (count, sum) deltas *)
  attribution : Stats.attribution;
  speed : Speed.t;
  mutable measured : string list;  (* metrics reported unscaled *)
  mutable drain_s : float;  (* spent draining the tracer; kept out of phase walls *)
  mutable r : round;  (* the round in progress *)
  mutable rounds : (string * float * string) list list;  (* finished rounds' metrics *)
  mutable setup_s : float list;
  mutable compress_pct : int;  (* history compressed/raw at the end of writing *)
  mutable lock_wait_us : int list;  (* p50, p99 of blocking lock waits *)
  mutable txns : int;  (* committed in measured phases *)
  mutable queries : int;  (* AS OF reads and history walks *)
  mutable recoveries : int;
  mutable attempted : int;
  mutable failed : int;  (* lock timeouts and deadlock victims *)
  mutable mismatches : int;  (* oracle disagreements *)
}

let create ~seed ~seconds ~traced =
  {
    seed;
    seconds;
    traced;
    probe = Probe.create ();
    dev = Probe.zero ();
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 8;
    attribution = Stats.attribution ();
    speed = Speed.create ();
    measured = [];
    drain_s = 0.;
    r = fresh_round ();
    rounds = [];
    setup_s = [];
    compress_pct = 0;
    lock_wait_us = [ 0; 0 ];
    txns = 0;
    queries = 0;
    recoveries = 0;
    attempted = 0;
    failed = 0;
    mismatches = 0;
  }

let now = Unix.gettimeofday
let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Run [round] on fresh databases until the run's time is spent, and at
   least [min_rounds] times; returns the number of rounds. *)
let rounds c ~min_rounds round =
  let deadline = now () +. c.seconds in
  let n = ref 0 in
  while !n < min_rounds || now () < deadline do
    Gc.compact ();
    round ();
    incr n
  done;
  !n

let expect c what ok =
  if not ok then begin
    if c.mismatches < 5 then Printf.eprintf "oracle mismatch: %s\n%!" what;
    c.mismatches <- c.mismatches + 1
  end

let config c ~pool =
  {
    E.default_config with
    E.pool_capacity = pool;
    auto_checkpoint_every = 1000;
    trace_sampling = (if c.traced then 1 else 0);
  }

let open_db ?sync_sleep_s c ~config ~clock =
  let disk =
    Probe.disk c.probe (Imdb_storage.Disk.in_memory ~page_size:config.E.page_size ())
  in
  let log_device = Probe.log ?sync_sleep_s c.probe (Imdb_wal.Wal.Device.in_memory ()) in
  let db = Db.open_devices ~config ~clock ~disk ~log_device () in
  c.probe.Probe.tracer <- Db.tracer db;
  db

(* --- tracing ----------------------------------------------------------- *)

(* A [Db] call as a bench root span of class [cls]. *)
let call db cls name f = T.with_span (Db.tracer db) ~attrs:[ ("class", cls) ] name (fun _ -> f ())

let take_spans db =
  let tr = Db.tracer db in
  let spans = T.spans tr in
  if T.dropped tr > 0 then failwith "tracer ring overflowed between drains";
  T.reset tr;
  spans

(* Attribute every completed span.  Callers drain only when no span of
   theirs is open and no other session is running, so the drained trees
   are whole and nothing completes between the read and the reset. *)
let drain c db =
  if c.traced then begin
    let t0 = now () in
    Stats.attribute c.attribution (take_spans db);
    c.drain_s <- c.drain_s +. (now () -. t0)
  end

(* Wall time of [f], less the time it spent draining the tracer. *)
let timed c f =
  let d0 = c.drain_s and t0 = now () in
  let r = f () in
  (now () -. t0 -. (c.drain_s -. d0), r)

(* --- timed operations ---------------------------------------------------- *)

(* Set-up of a round that began at [t0] is done. *)
let setup_done c t0 = c.r.setup_s <- now () -. t0

(* One operation: a root span, then a drain; returns its latency in µs. *)
let op c db cls name f =
  let t0 = now () in
  let r = call db cls name f in
  let t1 = now () in
  c.attempted <- c.attempted + 1;
  drain c db;
  Speed.tick c.speed;
  ((t1 -. t0) *. 1e6, r)

let query c db cls name f =
  c.queries <- c.queries + 1;
  op c db cls name f

(* One write transaction, begin to commit-return, each call a root span;
   returns the latency in µs and the commit timestamp. *)
let write_txn c db cls body =
  let t0 = now () in
  let txn = call db cls "db.begin_txn" (fun () -> Db.begin_txn db) in
  body txn;
  let ts = call db cls "db.commit" (fun () -> Db.commit db txn) in
  let t1 = now () in
  c.attempted <- c.attempted + 1;
  c.txns <- c.txns + 1;
  drain c db;
  Speed.tick c.speed;
  ((t1 -. t0) *. 1e6, Option.get ts)

(* --- measured phases ----------------------------------------------------- *)

let tracked_hists = [ M.h_group_commit_batch; M.h_compress_decode_ns; M.h_lock_wait_us ]

let hist_totals m =
  List.map
    (fun h ->
      match M.histogram m h with Some s -> (s.M.h_count, s.M.h_sum) | None -> (0, 0))
    tracked_hists

let bump = Stats.bump

(* The engine's own I/O counters must equal what the device wrappers
   saw: a mismatch means one of the two probes is wrong. *)
let cross_check counters (dev : Probe.counts) =
  let engine k = Option.value (List.assoc_opt k counters) ~default:0 in
  List.iter
    (fun (k, seen) ->
      if engine k <> seen then
        failwith
          (Printf.sprintf "device cross-check: engine %s = %d, wrapper saw %d" k (engine k)
             seen))
    [ (M.disk_reads, dev.Probe.reads); (M.disk_writes, dev.writes); (M.log_flushes, dev.syncs) ]

(* Run [f] as one measured phase on [db]: fold the registry's counter
   and histogram deltas and the device traffic into the run's totals,
   cross-checking the two unless [check] is off.  Returns [f]'s result
   and the phase's device traffic. *)
let phase ?(check = true) c db f =
  if c.traced then T.reset (Db.tracer db) (* spans of unmeasured set-up work *);
  let m = Db.metrics db in
  let before = M.snapshot m and h0 = hist_totals m and p0 = Probe.snapshot c.probe in
  let r = f () in
  let d = M.diff ~before ~after:(M.snapshot m) in
  let dev = Probe.diff ~before:p0 (Probe.snapshot c.probe) in
  List.iter (fun (k, v) -> bump c.counters k v) d;
  List.iter2
    (fun h ((n0, s0), (n1, s1)) ->
      let n, s = Option.value (Hashtbl.find_opt c.hists h) ~default:(0, 0) in
      Hashtbl.replace c.hists h (n + n1 - n0, s + s1 - s0))
    tracked_hists
    (List.combine h0 (hist_totals m));
  Probe.add c.dev dev;
  if check then cross_check d dev;
  (r, dev)

(* Crash and recover, timed.  Recovery runs before the new engine's
   tracer exists, so its device calls carry no spans; its own spans
   become children of one synthetic root for the call. *)
let recover c db ~clock =
  c.probe.Probe.tracer <- T.null;
  let p0 = Probe.snapshot c.probe in
  let t0 = now () in
  let db = Db.crash_and_reopen ~clock db in
  let t1 = now () in
  let dev = Probe.diff ~before:p0 (Probe.snapshot c.probe) in
  let m = Db.metrics db in
  cross_check (M.snapshot m) dev;
  bump c.counters M.recovery_redo (M.get m M.recovery_redo);
  bump c.counters M.recovery_undo (M.get m M.recovery_undo);
  bump c.counters "recovery.log_bytes_read" dev.Probe.log_read_bytes;
  c.recoveries <- c.recoveries + 1;
  c.attempted <- c.attempted + 1;
  c.r.recovery_ms <- (t1 -. t0) *. 1000.;
  if c.traced then begin
    let us t = int_of_float (t *. 1e6) in
    let root =
      Stats.span ~attrs:[ ("class", "recovery") ] (-1) 0 "db.crash_and_reopen" (us t0)
        (us t1 - us t0)
    in
    let adopt s = if s.T.c_parent = 0 then { s with T.c_parent = -1 } else s in
    Stats.attribute c.attribution (root :: List.map adopt (take_spans db))
  end;
  c.probe.Probe.tracer <- Db.tracer db;
  db

(* Disk pages plus log, per byte of user data written. *)
let space_ratio db ~user_bytes =
  let disk, log = Db.devices db in
  let stored =
    (disk.Imdb_storage.Disk.page_count () * disk.Imdb_storage.Disk.page_size)
    + log.Imdb_wal.Wal.Device.size ()
  in
  float_of_int stored /. float_of_int user_bytes

let page_size db = (fst (Db.devices db)).Imdb_storage.Disk.page_size

(* State at the end of the write phases that the per-layer report needs. *)
let end_of_writes c db ~user_bytes =
  c.r.space <- space_ratio db ~user_bytes;
  c.compress_pct <- M.gauge (Db.metrics db) M.compress_ratio;
  c.lock_wait_us <- M.percentiles (Db.metrics db) M.h_lock_wait_us [ 0.5; 0.99 ]

(* --- reports --------------------------------------------------------------- *)

(* Close the round in progress: every tail percentile must have at least
   ten samples beyond it. *)
let end_round c =
  let r = c.r in
  let counts =
    [ ("commit", List.length r.commit_us, 1000); ("conv_commit", List.length r.conv_us, 1);
      ("asof_point", List.length r.point_us, 1000); ("asof_scan", List.length r.scan_ms, 100);
      ("history", List.length r.history_us, 100) ]
  in
  List.iter
    (fun (k, n, need) ->
      if n < need then failwith (Printf.sprintf "too few %s samples for its percentiles" k))
    counts;
  let p q l = Stats.percentile l q in
  let f, slices = Speed.factor c.speed in
  let at_speed (name, v, unit) =
    let v =
      if List.mem name c.measured then v
      else match unit with "us" | "ms" | "s" -> v *. f | "1/s" -> v /. f | _ -> v
    in
    (name, v, unit)
  in
  c.setup_s <- r.setup_s *. f :: c.setup_s;
  let metrics =
    List.map at_speed
      [
        ("commit_tps", float_of_int r.commit_txns /. r.commit_s, "1/s");
        ("commit_p50_us", p 0.5 r.commit_us, "us");
        ("commit_p99_us", p 0.99 r.commit_us, "us");
        ("conv_commit_p50_us", p 0.5 r.conv_us, "us");
        ("recovery_ms", r.recovery_ms, "ms");
        ("load_rows_per_s", r.load_rate, "1/s");
        ("asof_point_p50_us", p 0.5 r.point_us, "us");
        ("asof_point_p99_us", p 0.99 r.point_us, "us");
        ("asof_scan_p50_ms", p 0.5 r.scan_ms, "ms");
        ("asof_scan_p90_ms", p 0.9 r.scan_ms, "ms");
        ("history_p50_us", p 0.5 r.history_us, "us");
        ("history_p90_us", p 0.9 r.history_us, "us");
        ("write_bytes_per_txn", float_of_int r.written_bytes /. float_of_int r.written_txns, "B/txn");
        ("space_bytes_per_user_byte", r.space, "B/B");
      ]
  in
  note "round %d: %s; samples %s; speed factor %.3f from %d slices" (List.length c.rounds + 1)
    (String.concat " " (List.map (fun (k, v, _) -> Printf.sprintf "%s=%.4g" k v) metrics))
    (String.concat " " (List.map (fun (k, n, _) -> Printf.sprintf "%s=%d" k n) counts))
    f slices;
  c.rounds <- metrics :: c.rounds;
  c.r <- fresh_round ()

let over_rounds c name =
  Stats.median
    (List.map
       (fun r -> Option.get (List.find_map (fun (n, v, _) -> if n = name then Some v else None) r))
       c.rounds)

(* Set-up time, then every per-round metric as its median over rounds. *)
let end_to_end c =
  ("setup_s", Stats.median c.setup_s, "s")
  :: List.map (fun (name, _, unit) -> (name, over_rounds c name, unit)) (List.hd c.rounds)

(* Spans whose self time the traced run reports: the engine's own, then
   the device spans the wrappers record. *)
let layer_spans =
  [ "txn.commit"; "txn.update"; "wal.flush"; "ptt.insert"; "ptt.gc"; "ptt.delete_batch";
    "stamp.page"; "stamp.record"; "split.time"; "split.key"; "ingest.flush"; "checkpoint";
    "scan.asof"; "history.walk"; "compress.decode"; "lock.wait"; "recovery";
    "recovery.analysis"; "recovery.redo"; "recovery.undo"; "storage.read"; "storage.write";
    "wal.append"; "wal.sync" ]

let ratio a b = if b = 0. then 0. else a /. b

let per_layer ~untraced:u ~traced:t =
  let cnt k = float_of_int (Option.value (Hashtbl.find_opt u.counters k) ~default:0) in
  let hist k = Option.value (Hashtbl.find_opt u.hists k) ~default:(0, 0) in
  let ops = float_of_int u.attempted
  and txns = float_of_int u.txns
  and queries = float_of_int u.queries
  and recoveries = float_of_int u.recoveries in
  let per_op k = ratio (cnt k) ops
  and per_txn k = ratio (cnt k) txns
  and per_query k = ratio (cnt k) queries in
  let d = u.dev in
  let f = float_of_int in
  let batch_n, batch_sum = hist M.h_group_commit_batch in
  let _, decode_ns = hist M.h_compress_decode_ns in
  let _, wait_sum = hist M.h_lock_wait_us in
  let lookups = cnt M.buf_hits +. cnt M.buf_misses in
  let t_ops = f t.attempted in
  [
    ("storage.reads", ratio (f d.Probe.reads) ops, "count/op");
    ("storage.read_us", ratio d.read_us ops, "us/op");
    ("storage.writes", ratio (f d.writes) ops, "count/op");
    ("storage.write_us", ratio d.write_us ops, "us/op");
    ("wal.appends", ratio (f d.appends) txns, "count/txn");
    ("wal.bytes", ratio (f d.append_bytes) txns, "B/txn");
    ("wal.syncs", ratio (f d.syncs) txns, "count/txn");
    ("wal.sync_us", ratio d.sync_us txns, "us/txn");
    ("wal.commits_per_sync", ratio (f batch_sum) (f batch_n), "ratio");
    ("buffer.hit_ratio", ratio (cnt M.buf_hits) lookups, "ratio");
    ("buffer.evictions", per_op M.buf_evictions, "count/op");
    ("btree.node_splits", per_txn M.btree_node_splits, "count/txn");
    ("buffer.keydir_hit_ratio",
      ratio (cnt M.keydir_hits) (cnt M.keydir_hits +. cnt M.keydir_misses), "ratio");
    ("split.time", per_txn M.time_splits, "count/txn");
    ("split.key", per_txn M.key_splits, "count/txn");
    ("split.copied", per_txn M.split_copied, "count/txn");
    ("ptt.inserts", per_txn M.ptt_inserts, "count/txn");
    ("ptt.deletes", per_txn M.ptt_deletes, "count/txn");
    ("ptt.lookups", per_op M.ptt_lookups, "count/op");
    ("vtt.hits", per_op M.vtt_hits, "count/op");
    ("tstamp.applied", per_op M.stamps_applied, "count/op");
    ("ingest.flushes", per_txn M.ingest_flushes, "count/txn");
    ("ingest.msgs_per_page_visit",
      ratio (cnt M.ingest_flush_messages) (cnt M.ingest_flush_pages), "ratio");
    ("asof.pages_per_query", per_query M.asof_pages, "count/query");
    ("asof.versions_per_query", per_query M.asof_versions, "count/query");
    ("compress.decode_us", ratio (f decode_ns /. 1000.) queries, "us/query");
    ("compress.ratio", f u.compress_pct, "%");
    ("lock.conflicts", per_txn M.lock_conflicts, "count/txn");
    ("lock.wait_us.p50", f (List.nth u.lock_wait_us 0), "us");
    ("lock.wait_us.p99", f (List.nth u.lock_wait_us 1), "us");
    ("lock.wait_us.sum", ratio (f wait_sum) txns, "us/txn");
    ("engine.checkpoints", per_txn M.checkpoints, "count/txn");
    ("recovery.redo_records", ratio (cnt M.recovery_redo) recoveries, "count");
    ("recovery.undo_records", ratio (cnt M.recovery_undo) recoveries, "count");
    ("recovery.log_bytes_read", ratio (cnt "recovery.log_bytes_read") recoveries, "B");
  ]
  @ List.map
      (fun s ->
        ("self_us." ^ s, ratio (f (Stats.self_of t.attribution s)) t_ops, "us/op"))
      layer_spans
  @ [
      ("unattributed_share",
        ratio (f t.attribution.unattributed_us) (f t.attribution.root_us), "ratio");
      ("trace_overhead", 1. -. ratio (over_rounds t "commit_tps") (over_rounds u "commit_tps"),
        "ratio");
    ]

(* Self time per commit-phase transaction of each table, by span, in a
   traced run: where the immortal/conventional gap comes from.  Every
   such transaction has one "db.commit" root of its table's class. *)
let print_commit_attribution c =
  let a = c.attribution in
  List.iter
    (fun cls ->
      let n = Option.value (Hashtbl.find_opt a.Stats.spans (cls, "db.commit")) ~default:0 in
      if n > 0 then
        Hashtbl.fold
          (fun (k, name) us acc -> if k = cls then (name, us) :: acc else acc)
          a.Stats.self_us []
        |> List.sort (fun (_, x) (_, y) -> compare y x)
        |> List.map (fun (name, us) ->
               Printf.sprintf "%s=%.2f" name (float_of_int us /. float_of_int n))
        |> String.concat " "
        |> note "self_us per %s commit txn (%d txns): %s" cls n)
    [ "imm"; "conv" ]

let print_result runs metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 runs in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (sum (fun c -> c.mismatches) = 0)
    (sum (fun c -> c.attempted))
    (sum (fun c -> c.failed + c.mismatches))
    (String.concat ", "
       (List.map
          (fun (n, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) unit)
          metrics))
