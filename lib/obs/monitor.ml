(* Continuous monitor: periodic counter snapshots in a bounded ring.

   A monitor owns nothing but a [Metrics.t] handle and a clock function;
   [sample] captures the current counter snapshot with a timestamp, and
   derived rates come from differencing the two newest samples.  The
   sampling itself is driven either manually (tests use a logical clock
   and call [sample] directly, so every derived number is a pure function
   of the workload) or by a background thread ([start]/[stop]) that wakes
   on a wall-clock interval.

   The shared [null] monitor keeps the same contract as [Metrics.null]:
   when [on] is false every operation short-circuits on one branch, so an
   engine built without monitoring pays nothing and — the obsov gate
   proves this — perturbs no counters.

   The background thread sleeps in short slices and re-checks a stop flag
   so [stop] completes within ~50 ms and the thread is always joined;
   leaving it running would pin the runtime at exit (same liveness rule
   as the lock manager's ticker thread). *)

type sample = { s_seq : int; s_at_us : int64; s_counters : Metrics.snapshot }

type rates = {
  r_interval_us : int64;
  r_txn_per_s : float;
  r_wal_bytes_per_s : float;
  r_splits_per_s : float;
  r_stamping_backlog : int;
}

type t = {
  on : bool;
  metrics : Metrics.t;
  clock_us : unit -> int64;
  interval_us : int64;
  capacity : int;
  lock : Mutex.t;
  samples : sample Queue.t;
  mutable seq : int;
  mutable dropped : int;
  mutable stop_flag : bool;
  mutable thread : Thread.t option;
}

let default_capacity = 600

let make ~on ~metrics ~clock_us ~interval_ms ~capacity =
  {
    on;
    metrics;
    clock_us;
    interval_us = Int64.of_int (max 1 interval_ms * 1000);
    capacity = max 1 capacity;
    lock = Mutex.create ();
    samples = Queue.create ();
    seq = 0;
    dropped = 0;
    stop_flag = false;
    thread = None;
  }

let null =
  make ~on:false ~metrics:Metrics.null
    ~clock_us:(fun () -> 0L)
    ~interval_ms:1000 ~capacity:1

let create ?(interval_ms = 1000) ?(capacity = default_capacity)
    ?(clock_us = fun () -> Int64.of_float (Unix.gettimeofday () *. 1e6)) metrics
    =
  make ~on:true ~metrics ~clock_us ~interval_ms ~capacity

let enabled t = t.on
let interval_ms t = Int64.to_int (Int64.div t.interval_us 1000L)

let locked t f = Mutex.protect t.lock f

let sample t =
  if t.on then begin
    (* Snapshot outside our own lock: Metrics has its own mutex and the
       background thread is the only ring writer anyway. *)
    let counters = Metrics.snapshot t.metrics in
    let at = t.clock_us () in
    locked t (fun () ->
        let s = { s_seq = t.seq; s_at_us = at; s_counters = counters } in
        t.seq <- t.seq + 1;
        if Queue.length t.samples >= t.capacity then begin
          ignore (Queue.pop t.samples);
          t.dropped <- t.dropped + 1;
          Metrics.incr t.metrics Metrics.monitor_dropped
        end;
        Queue.push s t.samples;
        Metrics.incr t.metrics Metrics.monitor_samples)
  end

let samples t =
  if not t.on then []
  else locked t (fun () -> List.of_seq (Queue.to_seq t.samples))

let dropped t = if not t.on then 0 else locked t (fun () -> t.dropped)

let last_two t =
  locked t (fun () ->
      let n = Queue.length t.samples in
      if n < 2 then None
      else
        let arr = Array.of_seq (Queue.to_seq t.samples) in
        Some (arr.(n - 2), arr.(n - 1)))

let counter_of (s : Metrics.snapshot) name =
  match List.assoc_opt name s with Some v -> v | None -> 0

let rates_between a b =
  let dt_us = Int64.sub b.s_at_us a.s_at_us in
  let dt_s = Int64.to_float (Int64.max 1L dt_us) /. 1e6 in
  let delta name = counter_of b.s_counters name - counter_of a.s_counters name in
  {
    r_interval_us = dt_us;
    r_txn_per_s = float_of_int (delta Metrics.txn_commits) /. dt_s;
    r_wal_bytes_per_s = float_of_int (delta Metrics.log_bytes) /. dt_s;
    r_splits_per_s =
      float_of_int (delta Metrics.time_splits + delta Metrics.key_splits)
      /. dt_s;
    (* Backlog is a level, not a rate: checkpoints post the mappings
       versions may still need and GC retires them once the stamping is
       on disk, so inserts - deletes = posted mappings outstanding at the
       newest sample. *)
    r_stamping_backlog =
      counter_of b.s_counters Metrics.ptt_inserts
      - counter_of b.s_counters Metrics.ptt_deletes;
  }

let rates t =
  if not t.on then None
  else
    match last_two t with
    | None -> None
    | Some (a, b) -> Some (rates_between a b)

(* JSON for the flight recorder and `imdb monitor`: the whole ring plus
   the derived rates of the newest interval and current p50/p90/p99 of
   every histogram.  Rates are rounded to milli-units so the text is
   byte-stable for a given sample pair. *)
let to_json t =
  let module J = Json in
  if not t.on then J.Obj [ ("enabled", J.Bool false) ]
  else begin
    let ss = samples t in
    let sample_json s =
      J.Obj
        [
          ("seq", J.Int s.s_seq);
          ("at_us", J.String (Int64.to_string s.s_at_us));
          ( "counters",
            J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.s_counters) );
        ]
    in
    let milli f = J.Int (int_of_float (Float.round (f *. 1000.0))) in
    let rates_json =
      match rates t with
      | None -> J.Null
      | Some r ->
          J.Obj
            [
              ("interval_us", J.String (Int64.to_string r.r_interval_us));
              ("txn_per_s_milli", milli r.r_txn_per_s);
              ("wal_bytes_per_s_milli", milli r.r_wal_bytes_per_s);
              ("splits_per_s_milli", milli r.r_splits_per_s);
              ("stamping_backlog", J.Int r.r_stamping_backlog);
            ]
    in
    let hists =
      List.map
        (fun (name, (s : Metrics.hist_summary)) ->
          ( name,
            J.Obj
              [
                ("count", J.Int s.h_count);
                ("p50", J.Int s.h_p50);
                ("p90", J.Int s.h_p90);
                ("p99", J.Int s.h_p99);
              ] ))
        (Metrics.histograms t.metrics)
    in
    J.Obj
      [
        ("enabled", J.Bool true);
        ("interval_ms", J.Int (interval_ms t));
        ("capacity", J.Int t.capacity);
        ("dropped", J.Int (dropped t));
        ("samples", J.List (List.map sample_json ss));
        ("rates", rates_json);
        ("histograms", J.Obj hists);
      ]
  end

(* --- background sampler -------------------------------------------- *)

let stop_requested t = locked t (fun () -> t.stop_flag)

let run_loop t =
  let slice = 0.05 in
  let interval_s = Int64.to_float t.interval_us /. 1e6 in
  let next = ref (Unix.gettimeofday () +. interval_s) in
  while not (stop_requested t) do
    let now = Unix.gettimeofday () in
    if now >= !next then begin
      sample t;
      next := now +. interval_s
    end;
    Thread.delay (Float.min slice (Float.max 0.001 (!next -. Unix.gettimeofday ())))
  done

let start t =
  if t.on && t.thread = None then begin
    locked t (fun () -> t.stop_flag <- false);
    t.thread <- Some (Thread.create run_loop t)
  end

let stop t =
  match t.thread with
  | None -> ()
  | Some th ->
      locked t (fun () -> t.stop_flag <- true);
      Thread.join th;
      t.thread <- None
