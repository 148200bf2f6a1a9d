(* Hierarchical span tracer.  See tracer.mli for the contract.

   Concurrency model: one mutex guards everything — the id allocator,
   the per-domain stacks of open spans, both rings and the per-span-name
   duration histogram handles (each name interned once).  Spans are rare
   relative to the operations they wrap (and sampling thins them
   further), so a single lock is simpler than striping and keeps drop
   accounting exact.  The [null] tracer short-circuits on [on] before
   the lock, so a disabled call costs one branch.

   Sampling keeps trees whole: the decision is made once per *root*
   span (every [sampling]-th root records) and children inherit the
   root's fate through the domain stack — an unsampled root pushes an
   unsampled marker so its whole subtree is skipped, never torn. *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_sampled : bool;
  sp_start_us : int;
  mutable sp_attrs : (string * string) list; (* newest first *)
}

let null_span =
  { sp_id = 0; sp_parent = 0; sp_name = ""; sp_sampled = false; sp_start_us = 0;
    sp_attrs = [] }

type completed = {
  c_id : int;
  c_parent : int;
  c_name : string;
  c_domain : int;
  c_start_us : int;
  c_dur_us : int;
  c_attrs : (string * string) list;
  c_instant : bool;
}

type t = {
  on : bool;
  lock : Mutex.t;
  metrics : Metrics.t;
  sampling : int;
  slow_threshold_us : int;
  capacity : int;
  slow_capacity : int;
  mutable clock_us : unit -> int;
  mutable next_id : int;
  mutable roots_seen : int;
  ring : completed Queue.t;
  mutable ring_dropped : int;
  slow : completed Queue.t;
  mutable slow_dropped_n : int;
  stacks : (int, span list ref) Hashtbl.t; (* domain id -> open spans *)
  span_hists : (string, Metrics.histogram) Hashtbl.t; (* span name -> "span.<name>_us" *)
}

let trace_spans = Metrics.counter_of Metrics.trace_spans
let trace_drops = Metrics.counter_of Metrics.trace_drops
let trace_slow_ops = Metrics.counter_of Metrics.trace_slow_ops

let default_clock () = int_of_float (Unix.gettimeofday () *. 1_000_000.)

let make on ~capacity ~slow_capacity ~slow_threshold_us ~sampling ~metrics =
  {
    on;
    lock = Mutex.create ();
    metrics;
    sampling = max 1 sampling;
    slow_threshold_us;
    capacity = max 1 capacity;
    slow_capacity = max 1 slow_capacity;
    clock_us = default_clock;
    next_id = 1;
    roots_seen = 0;
    ring = Queue.create ();
    ring_dropped = 0;
    slow = Queue.create ();
    slow_dropped_n = 0;
    stacks = Hashtbl.create 8;
    span_hists = Hashtbl.create 16;
  }

let null =
  make false ~capacity:1 ~slow_capacity:1 ~slow_threshold_us:max_int ~sampling:1
    ~metrics:Metrics.null

let create ?(capacity = 4096) ?(slow_capacity = 256) ?(slow_threshold_us = 10_000)
    ?(sampling = 1) ~metrics () =
  make true ~capacity ~slow_capacity ~slow_threshold_us ~sampling ~metrics

let enabled t = t.on
let set_clock t f = t.clock_us <- f
let span_id sp = sp.sp_id

let locked t f = Mutex.protect t.lock f

let stack_for t did =
  match Hashtbl.find_opt t.stacks did with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.stacks did s;
      s

(* Root sampling decision; called under the lock. *)
let sample_root t =
  let n = t.roots_seen in
  t.roots_seen <- n + 1;
  n mod t.sampling = 0

let push_ring t c =
  if Queue.length t.ring >= t.capacity then begin
    ignore (Queue.pop t.ring);
    t.ring_dropped <- t.ring_dropped + 1;
    Metrics.incr t.metrics trace_drops
  end;
  Queue.push c t.ring

let push_slow t c =
  if Queue.length t.slow >= t.slow_capacity then begin
    ignore (Queue.pop t.slow);
    t.slow_dropped_n <- t.slow_dropped_n + 1
  end;
  Queue.push c t.slow

let add_attr sp k fmt v = if sp.sp_sampled then sp.sp_attrs <- (k, fmt v) :: sp.sp_attrs

(* Called under the lock. *)
let span_hist t name =
  match Hashtbl.find_opt t.span_hists name with
  | Some h -> h
  | None ->
      let h = Metrics.histogram_of (Metrics.span_hist name) in
      Hashtbl.add t.span_hists name h;
      h

let open_span t ~attrs name =
  locked t (fun () ->
      let did = (Domain.self () :> int) in
      let stack = stack_for t did in
      let parent_sp = match !stack with sp :: _ -> Some sp | [] -> None in
      let sampled =
        match parent_sp with Some p -> p.sp_sampled | None -> sample_root t
      in
      let sp =
        if not sampled then null_span
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          {
            sp_id = id;
            sp_parent =
              (match parent_sp with
              | Some p when p.sp_sampled -> p.sp_id
              | _ -> 0);
            sp_name = name;
            sp_sampled = true;
            sp_start_us = t.clock_us ();
            sp_attrs = List.rev attrs;
          }
        end
      in
      stack := sp :: !stack;
      sp)

let close_span t sp =
  locked t (fun () ->
      let did = (Domain.self () :> int) in
      (match Hashtbl.find_opt t.stacks did with
      | Some stack -> ( match !stack with _ :: rest -> stack := rest | [] -> ())
      | None -> ());
      if sp.sp_sampled then begin
        let dur = max 0 (t.clock_us () - sp.sp_start_us) in
        let c =
          {
            c_id = sp.sp_id;
            c_parent = sp.sp_parent;
            c_name = sp.sp_name;
            c_domain = did;
            c_start_us = sp.sp_start_us;
            c_dur_us = dur;
            c_attrs = List.rev sp.sp_attrs;
            c_instant = false;
          }
        in
        push_ring t c;
        Metrics.incr t.metrics trace_spans;
        Metrics.observe t.metrics (span_hist t sp.sp_name) dur;
        if dur >= t.slow_threshold_us then begin
          push_slow t c;
          Metrics.incr t.metrics trace_slow_ops
        end
      end)

let with_span t ?(attrs = []) name f =
  if not t.on then f null_span
  else begin
    let sp = open_span t ~attrs name in
    Fun.protect ~finally:(fun () -> close_span t sp) (fun () -> f sp)
  end

let instant t ?(attrs = fun () -> []) name =
  if t.on then
    locked t (fun () ->
        let did = (Domain.self () :> int) in
        let stack = stack_for t did in
        let sampled, parent =
          match !stack with
          | sp :: _ -> (sp.sp_sampled, sp.sp_id)
          | [] -> (sample_root t, 0)
        in
        if sampled then begin
          let id = t.next_id in
          t.next_id <- id + 1;
          let now = t.clock_us () in
          push_ring t
            {
              c_id = id;
              c_parent = parent;
              c_name = name;
              c_domain = did;
              c_start_us = now;
              c_dur_us = 0;
              c_attrs = attrs ();
              c_instant = true;
            };
          Metrics.incr t.metrics trace_spans
        end)

let spans t = if not t.on then [] else locked t (fun () -> List.of_seq (Queue.to_seq t.ring))
let slow_ops t = if not t.on then [] else locked t (fun () -> List.of_seq (Queue.to_seq t.slow))
let dropped t = if not t.on then 0 else locked t (fun () -> t.ring_dropped)
let slow_dropped t = if not t.on then 0 else locked t (fun () -> t.slow_dropped_n)

let reset t =
  if t.on then
    locked t (fun () ->
        Queue.clear t.ring;
        Queue.clear t.slow;
        t.ring_dropped <- 0;
        t.slow_dropped_n <- 0)

(* --- exports -------------------------------------------------------- *)

(* Duplicate attr keys (repeated [add_attr]) keep the latest value. *)
let attr_obj attrs =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (k, v) ->
      if Hashtbl.mem seen k then acc
      else begin
        Hashtbl.add seen k ();
        (k, Json.String v) :: acc
      end)
    []
    (List.rev attrs)
  |> List.rev

let completed_json c =
  Json.Obj
    [
      ("id", Json.Int c.c_id);
      ("parent", Json.Int c.c_parent);
      ("name", Json.String c.c_name);
      ("domain", Json.Int c.c_domain);
      ("start_us", Json.Int c.c_start_us);
      ("dur_us", Json.Int c.c_dur_us);
      ("instant", Json.Bool c.c_instant);
      ("attrs", Json.Obj (attr_obj c.c_attrs));
    ]

let to_json t =
  let spans = spans t and slow = slow_ops t in
  Json.Obj
    [
      ("dropped", Json.Int (dropped t));
      ("slow_dropped", Json.Int (slow_dropped t));
      ("spans", Json.List (List.map completed_json spans));
      ("slow_ops", Json.List (List.map completed_json slow));
    ]

let chrome_event c =
  let args =
    ("span_id", Json.Int c.c_id)
    :: ("parent_id", Json.Int c.c_parent)
    :: attr_obj c.c_attrs
  in
  let base =
    [
      ("name", Json.String c.c_name);
      ("cat", Json.String "imdb");
      ("pid", Json.Int 1);
      ("tid", Json.Int c.c_domain);
      ("ts", Json.Int c.c_start_us);
    ]
  in
  let phase =
    if c.c_instant then
      [ ("ph", Json.String "i"); ("s", Json.String "t") ]
    else [ ("ph", Json.String "X"); ("dur", Json.Int c.c_dur_us) ]
  in
  Json.Obj (base @ phase @ [ ("args", Json.Obj args) ])

let to_chrome_json t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map chrome_event (spans t)));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_json_string t = Json.to_string (to_json t)
let to_chrome_string t = Json.to_string (to_chrome_json t)
