(* sessions_contended: two sessions on two domains, conflicting.

   Each transaction updates one key of a small hot set shared by both
   sessions, then one key of its own partition — ascending key order, so
   a conflict waits but cannot deadlock — on the immortal table or the
   conventional one, alternately.  Every 8th transaction the session
   re-reads its own partition AS OF a timestamp it saw earlier and checks
   the rows against what it had written by then.  The log device sleeps
   1 ms per sync (the same on every run), which is what lets group commit
   batch the two sessions' commits; locks wait up to 2 s.  Sessions meet
   at a barrier every 32 transactions, where the run's clock advances
   and, in a traced run, the tracer is drained while both are parked;
   each round runs a fixed 32 such epochs.
   A timed crash and recovery ends each round, then the oracle checks the
   final rows against the last committed writes and answers AS OF and
   history queries from the merged commit log. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module Clock = Imdb_clock.Clock
module Rng = Imdb_util.Rng

let sessions = 2
let hot = 4
let part = 500
let base sid = 1000 * (sid + 1)
let sync_sleep_s = 0.001
let load_batch = 100
let pool = 256
let epochs = 32 (* per round: 1024 transactions per session, half of them immortal *)
let min_rounds = 2
let epoch = 32
let reread_every = 8
let points = 6000
let walks = 720

(* A reusable barrier; the last arrival runs [leader] while the others
   are parked.  A party that leaves stops being waited for. *)
type barrier = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable parties : int;
  mutable waiting : int;
  mutable gen : int;
}

let release b leader =
  leader ();
  b.waiting <- 0;
  b.gen <- b.gen + 1;
  Condition.broadcast b.cv

let await b leader =
  Mutex.lock b.mu;
  let g = b.gen in
  b.waiting <- b.waiting + 1;
  if b.waiting >= b.parties then release b leader
  else while b.gen = g do Condition.wait b.cv b.mu done;
  Mutex.unlock b.mu

let leave b leader =
  Mutex.lock b.mu;
  b.parties <- b.parties - 1;
  if b.waiting > 0 && b.waiting >= b.parties then release b leader;
  Mutex.unlock b.mu

type commit = { ts : Ts.t; table : string; writes : (bool * int * S.value list) list }

type outcome = {
  commits : commit list;
  imm_us : float list;
  conv_us : float list;
  scan_ms : float list;
  attempts : int;
  aborted : int;
  reread_mismatches : int;
}

let payload r = S.payload_of_row Movers.schema r

let session_loop db ~seed ~sid ~barrier ~leader ~stop =
  let s = Db.session db in
  let rng = Rng.create ((seed * 1009) + sid) in
  let lo = S.encode_key (S.V_int (base sid)) and hi = S.encode_key (S.V_int (base sid + part)) in
  (* the session's partition of the immortal table, as it last wrote it *)
  let mine = Array.init part (fun j -> payload (Movers.row (base sid + j) (-1) 0)) in
  let seen = ref None and mine_commits = ref 0 in
  let commits = ref [] and imm_us = ref [] and conv_us = ref [] and scan_ms = ref [] in
  let aborted = ref 0 and mismatches = ref 0 and i = ref 0 in
  let txn i =
    let table = if i land 1 = 0 then "imm" else "conv" in
    let h = Rng.int rng hot and j = Rng.int rng part in
    let mine_row = Movers.row (base sid + j) sid i in
    let writes = [ (false, h, Movers.row h sid i); (false, base sid + j, mine_row) ] in
    let t0 = Ctx.now () in
    let txn = Ctx.call db table "db.begin_txn" (fun () -> Db.Session.begin_txn s) in
    match
      List.iter
        (fun (_, k, r) ->
          Ctx.call db table "db.update" (fun () ->
              Db.Session.update s txn ~table ~key:(S.encode_key (S.V_int k)) ~payload:(payload r)))
        writes;
      Ctx.call db table "db.commit" (fun () -> Db.Session.commit s txn)
    with
    | Some ts ->
        let us = (Ctx.now () -. t0) *. 1e6 in
        commits := { ts; table; writes } :: !commits;
        if table = "imm" then begin
          imm_us := us :: !imm_us;
          mine.(j) <- payload mine_row;
          incr mine_commits;
          if !mine_commits mod reread_every = 0 then seen := Some (ts, Array.copy mine)
        end
        else conv_us := us :: !conv_us
    | None -> failwith "write transaction committed nothing"
    | exception E.Deadlock_abort _ ->
        (try Db.Session.abort s txn with E.Txn_finished -> ());
        incr aborted
  in
  let reread () =
    match !seen with
    | None -> ()
    | Some (ts, then_) ->
        let t0 = Ctx.now () in
        let got = ref [] in
        Ctx.call db "asof" "db.as_of" (fun () ->
            Db.Session.as_of s ts (fun txn ->
                Db.Session.scan_as_of s txn ~table:"imm" ~ts ~lo ~hi (fun _ p -> got := p :: !got)));
        scan_ms := ((Ctx.now () -. t0) *. 1000.) :: !scan_ms;
        if Array.of_list (List.rev !got) <> then_ then incr mismatches
  in
  Fun.protect
    ~finally:(fun () -> leave barrier leader)
    (fun () ->
      while not (Atomic.get stop) do
        txn !i;
        if !i mod reread_every = reread_every - 1 then reread ();
        incr i;
        if !i mod epoch = 0 then await barrier leader
      done);
  {
    commits = !commits;
    imm_us = !imm_us;
    conv_us = !conv_us;
    scan_ms = !scan_ms;
    attempts = !i;
    aborted = !aborted;
    reread_mismatches = !mismatches;
  }

let round c ~db_pages =
  let t0 = Ctx.now () in
  let clock = Clock.create_logical () in
  let config = { (Ctx.config c ~pool) with E.lock_wait_timeout_ms = 2000 } in
  let db = Ctx.open_db ~sync_sleep_s c ~config ~clock in
  Movers.create_tables db;
  Ctx.setup_done c t0;
  let keys =
    List.init hot Fun.id @ List.concat (List.init sessions (fun s -> List.init part (( + ) (base s))))
  in
  let st = Movers.state () in
  Movers.write_phase c db ~clock st ~commit_phase:false ~load:true
    (Movers.chunks load_batch (List.map (fun k -> (true, k, Movers.row k (-1) 0)) keys));
  let stop = Atomic.make false and epoch_ends = ref 0 in
  let barrier =
    { mu = Mutex.create (); cv = Condition.create (); parties = sessions; waiting = 0; gen = 0 }
  in
  let leader () =
    Ctx.drain c db;
    Clock.advance clock Ts.quantum_ms;
    incr epoch_ends;
    if !epoch_ends = epochs then Atomic.set stop true
  in
  Clock.advance clock Ts.quantum_ms;
  let (wall, outs), dev =
    Ctx.phase ~check:false c db (fun () ->
        Ctx.timed c (fun () ->
            List.init sessions (fun sid ->
                Domain.spawn (fun () ->
                    session_loop db ~seed:c.Ctx.seed ~sid ~barrier ~leader ~stop))
            |> List.map Domain.join))
  in
  Ctx.drain c db;
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let committed = sum (fun o -> List.length o.commits) in
  let r = c.Ctx.r in
  r.Ctx.commit_txns <- committed;
  r.Ctx.commit_s <- wall;
  List.iter
    (fun o ->
      r.Ctx.commit_us <- o.imm_us @ r.Ctx.commit_us;
      r.Ctx.conv_us <- o.conv_us @ r.Ctx.conv_us;
      r.Ctx.scan_ms <- o.scan_ms @ r.Ctx.scan_ms)
    outs;
  Movers.note_written c db ~txns:committed dev;
  c.Ctx.txns <- c.Ctx.txns + committed;
  c.Ctx.queries <- c.Ctx.queries + sum (fun o -> List.length o.scan_ms);
  c.Ctx.attempted <- c.Ctx.attempted + sum (fun o -> o.attempts + List.length o.scan_ms);
  c.Ctx.failed <- c.Ctx.failed + sum (fun o -> o.aborted);
  c.Ctx.mismatches <- c.Ctx.mismatches + sum (fun o -> o.reread_mismatches);
  (* commit timestamps order the two sessions' writes *)
  List.concat_map (fun o -> o.commits) outs
  |> List.sort (fun a b -> Ts.compare a.ts b.ts)
  |> List.iter (fun cm -> Movers.record st ~table:cm.table ~ts:cm.ts cm.writes);
  Ctx.end_of_writes c db ~user_bytes:st.Movers.user_bytes;
  db_pages := (fst (Db.devices db)).Imdb_storage.Disk.page_count ();
  let db = Ctx.recover c db ~clock in
  let rng = Rng.create (c.Ctx.seed + 303) in
  let history = Array.of_list (List.rev st.Movers.imm_ts) in
  (* one read in four on a hot key: hot keys carry hundreds of versions,
     partition keys a few, so the medians stay among partition keys and
     the tails among hot ones instead of flipping between the two *)
  let key n =
    if n mod 4 = 0 then Rng.int rng hot else base (Rng.int rng sessions) + Rng.int rng part
  in
  ignore
    (Ctx.phase c db (fun () ->
         Movers.check_current c db st;
         for n = 1 to points do
           Movers.check_point c db st ~key:(key n) ~ts:(Movers.depth_ts rng history)
         done;
         for n = 1 to walks do
           Movers.check_history c db st ~key:(key n)
         done));
  Db.close db;
  Ctx.end_round c

(* The two-session phase mostly sleeps in its simulated syncs and runs
   no reference slices, so its commit metrics are reported as measured. *)
let run c =
  c.Ctx.measured <- [ "commit_tps"; "commit_p50_us"; "commit_p99_us"; "conv_commit_p50_us" ];
  let db_pages = ref 0 in
  let rounds = Ctx.rounds c ~min_rounds (fun () -> round c ~db_pages) in
  Ctx.note
    "sessions_contended: seed=%d rounds=%d sessions=%d hot_keys=%d partition_keys=%d \
     rows/table=%d pool_frames=%d db_pages=%d pages_touched=%d committed=%d aborted=%d \
     flush=1ms-simulated-sync lock_wait_timeout_ms=2000 checkpoint_every=1000"
    c.Ctx.seed rounds sessions hot part (hot + (sessions * part)) pool !db_pages
    (Probe.pages_touched c.Ctx.probe) c.Ctx.txns c.Ctx.failed;
  if c.Ctx.traced then Ctx.print_commit_attribution c
