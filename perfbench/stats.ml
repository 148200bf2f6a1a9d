(* Order statistics and span-forest attribution.

   Percentiles are nearest-rank: the p-th percentile of n samples is the
   smallest sample with at least p*n samples at or below it.  A tail
   percentile is only reported when at least ten samples lie beyond it,
   which the workloads guarantee by their minimum sample counts.

   Self time of a span is its duration minus the part of its interval
   covered by the union of its children's intervals (children clipped to
   the parent, overlaps counted once).  Bench root spans wrap each [Db]
   call; whatever time a root keeps for itself was spent in no engine or
   device span, and is reported as unattributed. *)

module T = Imdb_obs.Tracer

let percentile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile samples 0.5

(* Samples beyond the [q] quantile of [n] samples: the tail that supports
   the estimate. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* Length of the union of [intervals] clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc + b - a)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
        | Some (ca, cb) -> go (acc + cb - ca) (Some (a, b)) rest)
  in
  go 0 None clipped

(* Self time of every (non-instant) span in a forest of complete trees. *)
let self_times (spans : T.completed list) =
  let spans = List.filter (fun c -> not c.T.c_instant) spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.T.c_parent <> 0 then
        Hashtbl.add children c.T.c_parent (c.T.c_start_us, c.T.c_start_us + c.T.c_dur_us))
    spans;
  List.map
    (fun c ->
      let lo = c.T.c_start_us in
      let hi = lo + c.T.c_dur_us in
      (c, c.T.c_dur_us - covered ~lo ~hi (Hashtbl.find_all children c.T.c_id)))
    spans

(* Running totals over every forest fed in: span count and self time per
   (class, span name), where a span's class is the "class" attr of its
   root, plus the roots' total and self time. *)
type attribution = {
  spans : (string * string, int) Hashtbl.t;
  self_us : (string * string, int) Hashtbl.t;
  mutable root_us : int;
  mutable unattributed_us : int;
}

let attribution () =
  { spans = Hashtbl.create 64; self_us = Hashtbl.create 64; root_us = 0; unattributed_us = 0 }

let bump tbl k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let attribute acc (spans : T.completed list) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_id c.T.c_id c) spans;
  let rec root c =
    match Hashtbl.find_opt by_id c.T.c_parent with Some p -> root p | None -> c
  in
  List.iter
    (fun (c, self) ->
      let r = root c in
      let cls = Option.value (List.assoc_opt "class" r.T.c_attrs) ~default:"" in
      let key = (cls, c.T.c_name) in
      bump acc.spans key 1;
      bump acc.self_us key self;
      if c == r then begin
        acc.root_us <- acc.root_us + c.T.c_dur_us;
        acc.unattributed_us <- acc.unattributed_us + self
      end)
    (self_times spans)

(* Self time of spans named [name], summed over the given classes (all
   classes when [classes] is omitted). *)
let self_of ?classes acc name =
  Hashtbl.fold
    (fun (cls, n) us total ->
      let wanted = match classes with None -> true | Some l -> List.mem cls l in
      if n = name && wanted then total + us else total)
    acc.self_us 0

let span ?(attrs = []) id parent name start dur =
  {
    T.c_id = id;
    c_parent = parent;
    c_name = name;
    c_domain = 0;
    c_start_us = start;
    c_dur_us = dur;
    c_attrs = attrs;
    c_instant = false;
  }

(* Checks the percentile and self-time code on a known sample and a
   hand-built forest; every run starts with it. *)
let selftest () =
  let check what ok = if not ok then failwith ("stats selftest: " ^ what) in
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" (percentile hundred 0.5 = 50.);
  check "p90 of 1..100" (percentile hundred 0.9 = 90.);
  check "p99 of 1..100" (percentile hundred 0.99 = 99.);
  check "p100 of 1..100" (percentile hundred 1.0 = 100.);
  check "p99 of one sample" (percentile [ 7. ] 0.99 = 7.);
  check "tail beyond p99 of 1000" (beyond 1000 0.99 = 10);
  check "tail beyond p90 of 100" (beyond 100 0.9 = 10);
  (* root [0,100): children B [10,40) and C [30,60) overlap; D [15,20)
     nests under B; E [90,120) overruns the root and is clipped. *)
  let forest =
    [
      span 4 2 "d" 15 5;
      span 2 1 "b" 10 30;
      span 3 1 "c" 30 30;
      span 5 1 "e" 90 30;
      span ~attrs:[ ("class", "x") ] 1 0 "root" 0 100;
      { (span 6 2 "mark" 12 0) with T.c_instant = true };
    ]
  in
  let self name =
    snd (List.find (fun (c, _) -> c.T.c_name = name) (self_times forest))
  in
  check "root self" (self "root" = 40);
  check "b self" (self "b" = 25);
  check "c self" (self "c" = 30);
  check "d self" (self "d" = 5);
  check "e self" (self "e" = 30);
  check "instants dropped" (List.length (self_times forest) = 5);
  let acc = attribution () in
  attribute acc forest;
  check "root total" (acc.root_us = 100);
  check "unattributed" (acc.unattributed_us = 40);
  check "class follows root" (self_of ~classes:[ "x" ] acc "d" = 5);
  check "self_of all classes" (self_of acc "b" = 25)
