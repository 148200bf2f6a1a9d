(* oltp_commit: the commit path at one record per transaction, the
   paper's worst case (Fig. 5).

   One session replays a moving-objects stream.  The objects' first
   positions are loaded in multi-row transactions; then every update
   event commits as its own transaction on the immortal table and on the
   conventional table, in an order that alternates per event.  Devices
   are in memory, log sync is free, checkpoints run every 1000 commits
   and the pool holds the working set, so the timings see the
   transaction manager, WAL append, PTT insert, lazy stamping, time
   splits, ingest flushes, checkpoints and PTT GC rather than I/O waits.
   Each round ends with a timed crash and recovery, after which the
   oracle checks every acknowledged commit and answers AS OF and history
   queries against the version map.

   Each round replays its own stream, generated from the run's seed and
   the round's number.  Which objects move how often is drawn per
   stream, and it sets the commit tail: the immortal commit p99 of one
   stream ranged from 500 to 1250 µs across seeds, steadily over every
   round and process of a run.  A run's median over a dozen or more
   streams varies far less than one stream's value. *)

module Db = Imdb_core.Db
module Mo = Imdb_workload.Moving_objects
module Clock = Imdb_clock.Clock
module Rng = Imdb_util.Rng

let objects = 1000
let updates = 6000 (* per table per round *)
let load_batch = 50
let pool = 1024
let points = 3000 (* oracle reads per round *)
let scans = 100
let walks = 300
let min_rounds = 3

let round c ~rng =
  let t0 = Ctx.now () in
  let seed = (c.Ctx.seed * 1000) + List.length c.Ctx.rounds in
  let events = Mo.generate ~seed ~inserts:objects ~total:(objects + updates) () in
  let clock = Clock.create_logical () in
  let db = Ctx.open_db c ~config:(Ctx.config c ~pool) ~clock in
  Movers.create_tables db;
  Ctx.setup_done c t0;
  let writes = List.map Movers.of_event events in
  let load = Movers.chunks load_batch (List.filteri (fun i _ -> i < objects) writes) in
  let stream = List.filteri (fun i _ -> i >= objects) writes |> List.map (fun w -> [ w ]) in
  let st = Movers.state () in
  Movers.write_phase c db ~clock st ~commit_phase:false ~load:true load;
  Movers.write_phase c db ~clock st ~commit_phase:true ~load:false stream;
  Ctx.end_of_writes c db ~user_bytes:st.Movers.user_bytes;
  let db = Ctx.recover c db ~clock in
  let history = Array.of_list (List.rev st.Movers.imm_ts) in
  let oid () = 1 + Rng.int rng objects in
  ignore
    (Ctx.phase c db (fun () ->
         Movers.check_current c db st;
         for _ = 1 to points do
           Movers.check_point c db st ~key:(oid ()) ~ts:(Movers.depth_ts rng history)
         done;
         for _ = 1 to scans do
           Movers.check_scan c db st ~ts:(Movers.depth_ts rng history)
         done;
         for _ = 1 to walks do
           Movers.check_history c db st ~key:(oid ())
         done));
  Db.close db;
  Ctx.end_round c

let run c =
  let rng = Rng.create (c.Ctx.seed + 101) in
  let rounds = Ctx.rounds c ~min_rounds (fun () -> round c ~rng) in
  Ctx.note
    "oltp_commit: seed=%d rounds=%d objects=%d updates/table/round=%d load_batch=%d \
     pool_frames=%d pages_touched=%d flush=free-sync checkpoint_every=1000"
    c.Ctx.seed rounds objects updates load_batch pool (Probe.pages_touched c.Ctx.probe);
  if c.Ctx.traced then Ctx.print_commit_attribution c
