(* asof_history: the temporal read path over a deep history (Fig. 6).

   A timed bulk load writes a moving-objects history at the paper's
   Fig. 6 shape (500 objects, about 70 versions each) in multi-row
   transactions; every 8th transaction is mirrored into the conventional
   table for the comparison of commit latencies.  The buffer pool
   is far smaller than the history, so the reads that follow — AS OF
   point lookups at depths uniform in 10-100%, full-table AS OF scans
   and history walks — go through the TSB index, version chains,
   compressed-history decode, buffer misses and disk reads.  The engine
   runs its default configuration (TSB on, history compression on).  A
   timed crash and recovery separates the load from the reads, so every
   answer checked against the version map is read back from recovered
   state. *)

module Db = Imdb_core.Db
module Mo = Imdb_workload.Moving_objects
module Clock = Imdb_clock.Clock
module Rng = Imdb_util.Rng

let objects = 500
let events = 36_000
let batch = 10
let conv_every = 8 (* conventional mirror of every 8th batch: its latency, not its bulk *)
let pool = 48
let cycles = 100 (* per round: 20 point lookups, a scan and a history walk each *)
let min_rounds = 2

(* Consecutive writes, at most [batch] per transaction, never two to the
   same key, so each transaction leaves one version per key it wrote. *)
let batches writes =
  let rec go acc cur keys = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ((_, key, _) as w) :: rest ->
        if List.length cur >= batch || List.mem key keys then
          go (List.rev cur :: acc) [ w ] [ key ] rest
        else go acc (w :: cur) (key :: keys) rest
  in
  go [] [] [] writes

let round c ~rng ~db_pages =
  let t0 = Ctx.now () in
  let stream = Mo.generate ~seed:c.Ctx.seed ~inserts:objects ~total:events () in
  let clock = Clock.create_logical () in
  let db = Ctx.open_db c ~config:(Ctx.config c ~pool) ~clock in
  Movers.create_tables db;
  Ctx.setup_done c t0;
  let load = batches (List.map Movers.of_event stream) in
  let st = Movers.state () in
  Movers.write_phase ~conv_every c db ~clock st ~commit_phase:true ~load:true load;
  Ctx.end_of_writes c db ~user_bytes:st.Movers.user_bytes;
  db_pages := (fst (Db.devices db)).Imdb_storage.Disk.page_count ();
  let db = Ctx.recover c db ~clock in
  let history = Array.of_list (List.rev st.Movers.imm_ts) in
  let oid () = 1 + Rng.int rng objects in
  ignore
    (Ctx.phase c db (fun () ->
         for _ = 1 to cycles do
           for _ = 1 to 20 do
             Movers.check_point c db st ~key:(oid ()) ~ts:(Movers.depth_ts rng history)
           done;
           Movers.check_scan c db st ~ts:(Movers.depth_ts rng history);
           Movers.check_history c db st ~key:(oid ())
         done));
  Db.close db;
  Ctx.end_round c

let run c =
  let rng = Rng.create (c.Ctx.seed + 202) and db_pages = ref 0 in
  let rounds = Ctx.rounds c ~min_rounds (fun () -> round c ~rng ~db_pages) in
  Ctx.note
    "asof_history: seed=%d rounds=%d objects=%d events=%d batch<=%d pool_frames=%d (%d KiB) \
     db_pages=%d (%d KiB) pages_touched=%d flush=free-sync checkpoint_every=1000"
    c.Ctx.seed rounds objects events batch pool (pool * 8) !db_pages (!db_pages * 8)
    (Probe.pages_touched c.Ctx.probe);
  if c.Ctx.traced then Ctx.print_commit_attribution c
