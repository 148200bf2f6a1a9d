(* What the three workloads share: moving-object rows written to an
   immortal table "imm" and a conventional mirror "conv", the version map
   that serves as the oracle, and the checked AS OF and history reads.

   Rows follow the paper's MovingObjects(Oid, LocationX, LocationY)
   schema.  Write batches commit on both tables, in an order that
   alternates per batch, so immortal and conventional latencies are
   sampled side by side on the same machine state. *)

module Db = Imdb_core.Db
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module Clock = Imdb_clock.Clock
module Mo = Imdb_workload.Moving_objects
module Rng = Imdb_util.Rng

let schema = Imdb_workload.Driver.moving_objects_schema
let row key x y = [ S.V_int key; S.V_int x; S.V_int y ]
let row_bytes r = String.length (S.key_of_row schema r) + String.length (S.payload_of_row schema r)

let create_tables db =
  Db.create_table db ~name:"imm" ~mode:Db.Immortal ~schema;
  Db.create_table db ~name:"conv" ~mode:Db.Conventional ~schema

(* One write: (is an insert, key, row). *)
let of_event = function
  | Mo.Insert { oid; x; y } -> (true, oid, row oid x y)
  | Mo.Update { oid; x; y } -> (false, oid, row oid x y)

type st = {
  versions : (int, (Ts.t * S.value list) list) Hashtbl.t;
      (* every committed state of each immortal key, newest first *)
  current : (int, S.value list) Hashtbl.t;  (* the conventional table *)
  mutable imm_ts : Ts.t list;  (* immortal commit timestamps, newest first *)
  mutable user_bytes : int;
}

let state () =
  { versions = Hashtbl.create 1024; current = Hashtbl.create 1024; imm_ts = []; user_bytes = 0 }

let record st ~table ~ts writes =
  List.iter
    (fun (_, key, r) ->
      st.user_bytes <- st.user_bytes + row_bytes r;
      if table = "imm" then
        Hashtbl.replace st.versions key
          ((ts, r) :: Option.value (Hashtbl.find_opt st.versions key) ~default:[])
      else Hashtbl.replace st.current key r)
    writes;
  if table = "imm" then st.imm_ts <- ts :: st.imm_ts

(* Commit [writes] as one transaction on [table]; returns its latency in
   µs.  Commit-phase transactions are timed into the latency samples
   under their table's class; load transactions carry the class "load". *)
let write_txn c db ~clock st ~commit_phase ~table writes =
  Clock.advance clock Ts.quantum_ms;
  let cls = if commit_phase then table else "load" in
  let us, ts =
    Ctx.write_txn c db cls (fun txn ->
        List.iter
          (fun (insert, _, r) ->
            if insert then Ctx.call db cls "db.insert_row" (fun () -> Db.insert_row db txn ~table r)
            else Ctx.call db cls "db.update_row" (fun () -> Db.update_row db txn ~table r))
          writes)
  in
  record st ~table ~ts writes;
  let r = c.Ctx.r in
  if commit_phase then
    if table = "imm" then r.Ctx.commit_us <- us :: r.Ctx.commit_us
    else r.Ctx.conv_us <- us :: r.Ctx.conv_us;
  us

(* Bytes the write phase sent to the log and data pages. *)
let note_written c db ~txns (dev : Probe.counts) =
  let r = c.Ctx.r in
  r.Ctx.written_bytes <- r.Ctx.written_bytes + dev.append_bytes + (dev.writes * Ctx.page_size db);
  r.Ctx.written_txns <- r.Ctx.written_txns + txns

(* A measured write phase: every batch commits on the immortal table,
   and every [conv_every]-th batch — and every batch that inserts — on
   the conventional table too, the two in an order that alternates per
   mirrored batch.  A commit phase feeds the commit metrics, a load the
   load rate; a bulk load can be both.  Both rates count the phase's
   time as the sum of its transactions' latencies: one session waits for
   each, so that is its wall time less the benchmark's own bookkeeping. *)
let write_phase ?(conv_every = 1) c db ~clock st ~commit_phase ~load batches =
  let txns = ref 0 and rows = ref 0 and mirrored = ref 0 and us = ref 0. in
  let (), dev =
    Ctx.phase c db (fun () ->
        List.iteri
          (fun i b ->
            let tables =
              if i mod conv_every <> 0 && not (List.exists (fun (ins, _, _) -> ins) b) then
                [ "imm" ]
              else begin
                incr mirrored;
                if !mirrored land 1 = 0 then [ "conv"; "imm" ] else [ "imm"; "conv" ]
              end
            in
            List.iter
              (fun table ->
                us := !us +. write_txn c db ~clock st ~commit_phase ~table b;
                incr txns;
                rows := !rows + List.length b)
              tables)
          batches)
  in
  let wall = !us /. 1e6 in
  note_written c db ~txns:!txns dev;
  let r = c.Ctx.r in
  if commit_phase then begin
    r.Ctx.commit_txns <- r.Ctx.commit_txns + !txns;
    r.Ctx.commit_s <- r.Ctx.commit_s +. wall
  end;
  if load then r.Ctx.load_rate <- float_of_int !rows /. wall

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take n [] l in
      chunk :: chunks n rest

(* --- the oracle ------------------------------------------------------------ *)

let at st key ts =
  Option.bind (Hashtbl.find_opt st.versions key) (fun vs ->
      Option.map snd (List.find_opt (fun (t, _) -> Ts.compare t ts <= 0) vs))

let state_at st ts =
  Hashtbl.fold (fun k _ acc -> k :: acc) st.versions []
  |> List.sort compare
  |> List.filter_map (fun k -> at st k ts)

(* A commit timestamp [depth] of the way through the immortal history,
   with depth uniform in 10-100%. *)
let depth_ts rng history =
  let n = Array.length history in
  let depth = 0.1 +. (0.9 *. Rng.float rng) in
  history.(max 0 (min (n - 1) (int_of_float (depth *. float_of_int n) - 1)))

let check_point c db st ~key ~ts =
  let us, got =
    Ctx.query c db "read" "db.as_of" (fun () ->
        Db.as_of db ts (fun txn -> Db.get_row db txn ~table:"imm" ~key:(S.V_int key)))
  in
  c.Ctx.r.Ctx.point_us <- us :: c.Ctx.r.Ctx.point_us;
  Ctx.expect c (Printf.sprintf "AS OF %s of key %d" (Ts.to_string ts) key) (got = at st key ts)

let check_scan c db st ~ts =
  let us, got =
    Ctx.query c db "read" "db.as_of" (fun () ->
        Db.as_of db ts (fun txn -> Db.scan_rows_as_of db txn ~table:"imm" ~ts))
  in
  c.Ctx.r.Ctx.scan_ms <- (us /. 1000.) :: c.Ctx.r.Ctx.scan_ms;
  Ctx.expect c ("AS OF scan at " ^ Ts.to_string ts) (got = state_at st ts)

let check_history c db st ~key =
  let us, got =
    Ctx.query c db "read" "db.history_rows" (fun () ->
        Db.exec db (fun txn -> Db.history_rows db txn ~table:"imm" ~key:(S.V_int key)))
  in
  c.Ctx.r.Ctx.history_us <- us :: c.Ctx.r.Ctx.history_us;
  let expected = Option.value (Hashtbl.find_opt st.versions key) ~default:[] in
  Ctx.expect c
    (Printf.sprintf "history of key %d" key)
    (List.equal
       (fun (t1, r1) (t2, r2) -> Ts.equal t1 t2 && r1 = r2)
       got
       (List.map (fun (t, r) -> (t, Some r)) expected))

(* After recovery: every acknowledged commit's row holds its last value,
   in both tables. *)
let check_current c db st =
  let get table key =
    snd
      (Ctx.op c db "oracle" "db.get_row" (fun () ->
           Db.exec db (fun txn -> Db.get_row db txn ~table ~key:(S.V_int key))))
  in
  Hashtbl.iter
    (fun key vs ->
      Ctx.expect c (Printf.sprintf "current imm key %d" key) (get "imm" key = Some (snd (List.hd vs))))
    st.versions;
  Hashtbl.iter
    (fun key r -> Ctx.expect c (Printf.sprintf "current conv key %d" key) (get "conv" key = Some r))
    st.current
