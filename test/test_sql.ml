(* SQL layer: parsing and execution, including the paper's DDL/AS OF
   syntax from Section 4. *)

open Helpers
module Db = Imdb_core.Db
module S = Imdb_core.Schema
module Sql = Imdb_sql.Executor
module Ast = Imdb_sql.Ast
module Ts = Imdb_clock.Timestamp

let exec1 session src =
  match Sql.exec_string session src with
  | [ r ] -> r
  | rs -> Alcotest.fail (Printf.sprintf "expected one result, got %d" (List.length rs))

let rows = function
  | Sql.R_rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let test_parse_paper_ddl () =
  (* the exact statement from the paper (Section 4.1) *)
  let stmt =
    Imdb_sql.Parser.parse_one
      "Create IMMORTAL Table MovingObjects (Oid smallint PRIMARY KEY, LocationX int, \
       LocationY int) ON [PRIMARY]"
  in
  match stmt with
  | Ast.Create_table { kind = Ast.K_immortal; name = "MovingObjects"; columns } ->
      Alcotest.(check int) "three columns" 3 (List.length columns);
      Alcotest.(check bool) "first is primary" true (List.hd columns).Ast.cd_primary
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_as_of () =
  match Imdb_sql.Parser.parse_one "Begin Tran AS OF \"2004-08-12 10:15:20\"" with
  | Ast.Begin_tran { as_of = Some "2004-08-12 10:15:20" } -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_script () =
  let stmts =
    Imdb_sql.Parser.parse_script
      "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR); INSERT INTO t VALUES (1, 'x'); \
       SELECT * FROM t WHERE a = 1 AND b <> 'y'; -- comment\n COMMIT"
  in
  Alcotest.(check int) "four statements" 4 (List.length stmts)

let test_end_to_end () =
  let db, clock = fresh_db () in
  let s = Sql.make_session db in
  ignore (exec1 s "CREATE IMMORTAL TABLE emp (id INT PRIMARY KEY, name VARCHAR, salary INT)");
  tick clock;
  ignore (exec1 s "INSERT INTO emp VALUES (1, 'smith', 100)");
  tick clock;
  ignore (exec1 s "INSERT INTO emp VALUES (2, 'jones', 200)");
  tick clock;
  ignore (exec1 s "UPDATE emp SET salary = 150 WHERE id = 1");
  let r = rows (exec1 s "SELECT * FROM emp WHERE salary >= 150") in
  Alcotest.(check int) "two rows >= 150" 2 (List.length r);
  let r = rows (exec1 s "SELECT name FROM emp WHERE id = 2") in
  Alcotest.(check bool) "projection" true (r = [ [ S.V_string "jones" ] ]);
  ignore (exec1 s "DELETE FROM emp WHERE id = 2");
  let r = rows (exec1 s "SELECT * FROM emp") in
  Alcotest.(check int) "one row left" 1 (List.length r);
  Db.close db

let test_as_of_query () =
  let db, clock = fresh_db () in
  let s = Sql.make_session db in
  ignore (exec1 s "CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)");
  tick clock;
  ignore (exec1 s "INSERT INTO t VALUES (1, 10)");
  (* capture the commit time of the first insert *)
  let t1 = Imdb_clock.Clock.last_issued clock in
  tick clock;
  ignore (exec1 s "UPDATE t SET v = 20 WHERE id = 1");
  tick clock;
  (* the paper's Begin Tran AS OF ... SELECT ... Commit Tran shape *)
  let as_of_src =
    Printf.sprintf "BEGIN TRAN AS OF \"%s\"; SELECT * FROM t WHERE id = 1; COMMIT TRAN"
      (Ts.to_string t1)
  in
  (match Sql.exec_string s as_of_src with
  | [ _; Sql.R_rows { rows = [ [ _; S.V_int v ] ]; _ }; _ ] ->
      Alcotest.(check int) "as-of sees old value" 10 v
  | _ -> Alcotest.fail "unexpected results");
  (* current value unchanged *)
  (match rows (exec1 s "SELECT * FROM t WHERE id = 1") with
  | [ [ _; S.V_int v ] ] -> Alcotest.(check int) "current is 20" 20 v
  | _ -> Alcotest.fail "unexpected row");
  Db.close db

let test_explicit_txn_rollback () =
  let db, clock = fresh_db () in
  let s = Sql.make_session db in
  ignore (exec1 s "CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)");
  tick clock;
  ignore (exec1 s "INSERT INTO t VALUES (1, 10)");
  ignore (exec1 s "BEGIN TRAN");
  ignore (exec1 s "UPDATE t SET v = 99 WHERE id = 1");
  ignore (exec1 s "ROLLBACK");
  (match rows (exec1 s "SELECT * FROM t WHERE id = 1") with
  | [ [ _; S.V_int v ] ] -> Alcotest.(check int) "rollback restored" 10 v
  | _ -> Alcotest.fail "unexpected row");
  Db.close db

let test_history_statement () =
  let db, clock = fresh_db () in
  let s = Sql.make_session db in
  ignore (exec1 s "CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)");
  tick clock;
  ignore (exec1 s "INSERT INTO t VALUES (1, 1)");
  tick clock;
  ignore (exec1 s "UPDATE t SET v = 2 WHERE id = 1");
  tick clock;
  ignore (exec1 s "DELETE FROM t WHERE id = 1");
  (match exec1 s "SELECT HISTORY(t, 1)" with
  | Sql.R_history entries ->
      Alcotest.(check int) "three versions" 3 (List.length entries);
      (match entries with
      | (_, None) :: _ -> ()
      | _ -> Alcotest.fail "newest should be the deletion")
  | _ -> Alcotest.fail "expected history");
  Db.close db

let test_errors () =
  let db, _clock = fresh_db () in
  let s = Sql.make_session db in
  ignore (exec1 s "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Alcotest.check_raises "unknown table"
    (Imdb_core.Db.No_such_table "missing")
    (fun () -> ignore (exec1 s "SELECT * FROM missing"));
  (match exec1 s "INSERT INTO t VALUES (1, 2)" with
  | Sql.R_ok _ -> ()
  | _ -> Alcotest.fail "insert failed");
  (match Sql.exec_string s "INSERT INTO t VALUES (1, 2)" with
  | exception Imdb_core.Table.Duplicate_key _ -> ()
  | _ -> Alcotest.fail "expected duplicate key");
  (match Sql.exec_string s "INSERT INTO t VALUES ('wrong', 2)" with
  | exception Sql.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected type error");
  Db.close db

(* A script runs statement by statement up to its first error, and the
   expected errors read as messages naming the key the user wrote. *)
let test_error_messages () =
  let db, _clock = fresh_db () in
  let s = Sql.make_session db in
  let ran = ref 0 in
  (match
     Sql.exec_iter s
       "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR); INSERT INTO t VALUES (1, 'a'); \
        INSERT INTO t VALUES (1, 'b'); INSERT INTO t VALUES (2, 'c')"
       (fun _ -> incr ran)
   with
  | () -> Alcotest.fail "expected a duplicate key"
  | exception e ->
      Alcotest.(check (option string)) "duplicate" (Some "duplicate key 1") (Sql.error_message e));
  Alcotest.(check int) "results before the error" 2 !ran;
  Alcotest.(check int) "the rest did not run" 1 (List.length (rows (exec1 s "SELECT * FROM t")));
  let key v = S.encode_key v in
  let msg e = Sql.error_message e in
  Alcotest.(check (option string)) "missing" (Some "no such key \"x\"")
    (msg (Imdb_core.Table.No_such_key (key (S.V_string "x"))));
  Alcotest.(check (option string)) "conflict" (Some "write conflict on key 3 (its writer has not committed)")
    (msg (Imdb_core.Table.Write_conflict { key = key (S.V_int 3); committed_at = None }));
  Alcotest.(check (option string)) "no table" (Some "no such table nope")
    (msg (Imdb_core.Db.No_such_table "nope"));
  Alcotest.(check (option string)) "not an expected error" None (msg Not_found);
  Db.close db

let suite =
  [
    Alcotest.test_case "error messages" `Quick test_error_messages;
    Alcotest.test_case "parse paper DDL" `Quick test_parse_paper_ddl;
    Alcotest.test_case "parse AS OF" `Quick test_parse_as_of;
    Alcotest.test_case "parse script" `Quick test_parse_script;
    Alcotest.test_case "end to end" `Quick test_end_to_end;
    Alcotest.test_case "AS OF query" `Quick test_as_of_query;
    Alcotest.test_case "explicit txn rollback" `Quick test_explicit_txn_rollback;
    Alcotest.test_case "SELECT HISTORY" `Quick test_history_statement;
    Alcotest.test_case "errors" `Quick test_errors;
  ]
