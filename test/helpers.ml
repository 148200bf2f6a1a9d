(* Shared test utilities. *)

module Ts = Imdb_clock.Timestamp
module E = Imdb_core.Engine
module Db = Imdb_core.Db

let default_config = E.default_config

(* A deterministic in-memory database with a logical clock the test
   advances explicitly. *)
let fresh_db ?(config = default_config) () =
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  (db, clock)

let tick clock = Imdb_clock.Clock.advance clock 20L

(* A tiny (id INT PRIMARY KEY, val VARCHAR) schema used across tests. *)
let kv_schema =
  Imdb_core.Schema.make
    [
      { Imdb_core.Schema.col_name = "id"; col_type = Imdb_core.Schema.T_int };
      { Imdb_core.Schema.col_name = "val"; col_type = Imdb_core.Schema.T_string };
    ]

let row id v = [ Imdb_core.Schema.V_int id; Imdb_core.Schema.V_string v ]

let ts_testable = Alcotest.testable Ts.pp Ts.equal

(* Commit a single-write transaction and return its timestamp. *)
let commit_write db f =
  let txn = Db.begin_txn db in
  f txn;
  match Db.commit db txn with
  | Some ts -> ts
  | None -> Alcotest.fail "expected a writing transaction"

let check_row db ~table ~id expected =
  Db.exec db (fun txn ->
      let got = Db.get_row db txn ~table ~key:(Imdb_core.Schema.V_int id) in
      let pp_row = Fmt.Dump.list Imdb_core.Schema.pp_value in
      Alcotest.(check string)
        (Printf.sprintf "row %d" id)
        (Fmt.str "%a" (Fmt.Dump.option pp_row) expected)
        (Fmt.str "%a" (Fmt.Dump.option pp_row) got))

(* Poll [lm]'s dump until at least [n] requests are parked (or 5 s
   pass) and return the last dump.  A wait-for edge is visible only once
   its waiter has released the manager's mutex to park, so this is how a
   test knows another domain is parked without sleeping. *)
let await_waiters lm n =
  let module L = Imdb_lock.Lock_manager in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    let d = L.dump lm in
    if List.length d.L.d_waiters >= n || Unix.gettimeofday () >= deadline then d
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()
