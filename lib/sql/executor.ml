(* SQL execution over the Db API.

   A [session] holds at most one open transaction, as in the paper's
   examples:

   {v
     Begin Tran AS OF "8/12/2004 10:15:20"
     SELECT * FROM MovingObjects WHERE Oid < 10
     Commit Tran
   v}

   Statements outside an explicit transaction autocommit.  Point
   operations on the primary key use the key access path; other WHERE
   clauses filter a scan. *)

open Ast
module Db = Imdb_core.Db
module Schema = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp

exception Exec_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type result =
  | R_ok of string
  | R_rows of { header : string list; rows : Schema.value list list }
  | R_history of (Ts.t * Schema.value list option) list

type session = {
  db : Db.t;
  dbs : Db.Session.t;  (* transactions run on this, so each SQL session
                          shows up with its own id in [SESSIONS] *)
  mutable txn : Db.txn option;
  mutable isolation : Db.isolation;
}

let make_session db =
  { db; dbs = Db.session db; txn = None; isolation = Db.Serializable }

(* --- value & condition plumbing ---------------------------------------- *)

let value_of_literal schema_ty lit =
  match (schema_ty, lit) with
  | Schema.T_int, L_int i -> Schema.V_int i
  | Schema.T_float, L_float f -> Schema.V_float f
  | Schema.T_float, L_int i -> Schema.V_float (float_of_int i)
  | Schema.T_string, L_string s -> Schema.V_string s
  | Schema.T_bool, L_bool b -> Schema.V_bool b
  | ty, lit -> fail "literal %a does not fit column type %s" pp_literal lit (Schema.type_name ty)

let untyped_value = function
  | L_int i -> Schema.V_int i
  | L_float f -> Schema.V_float f
  | L_string s -> Schema.V_string s
  | L_bool b -> Schema.V_bool b
  | L_null -> fail "NULL is not supported here"

let rec eval_condition schema row = function
  | C_true -> true
  | C_and (a, b) -> eval_condition schema row a && eval_condition schema row b
  | C_or (a, b) -> eval_condition schema row a || eval_condition schema row b
  | C_not c -> not (eval_condition schema row c)
  | C_compare (col, op, lit) -> (
      match Schema.column_index schema col with
      | None -> fail "unknown column %s" col
      | Some i -> (
          match lit with
          | L_null -> false
          | _ ->
              let v = List.nth row i in
              let w = untyped_value lit in
              let c =
                try Schema.compare_values v w
                with Schema.Type_error _ ->
                  fail "type mismatch comparing column %s" col
              in
              (match op with
              | Eq -> c = 0
              | Neq -> c <> 0
              | Lt -> c < 0
              | Le -> c <= 0
              | Gt -> c > 0
              | Ge -> c >= 0)))

(* A key-equality conjunct enables the point access path. *)
let rec key_equality schema cond =
  let key_col = (Schema.key_column schema).Schema.col_name in
  match cond with
  | C_compare (col, Eq, lit) when String.equal col key_col ->
      Some (value_of_literal (Schema.key_column schema).Schema.col_type lit)
  | C_and (a, b) -> (
      match key_equality schema a with Some v -> Some v | None -> key_equality schema b)
  | _ -> None

(* Key-range conjuncts enable the range access path: the paper's own
   example query is [WHERE Oid < 10].  Bounds are on the order-preserving
   encoded key; inclusive bounds become exclusive ones by appending a NUL
   (the smallest strictly-greater string). *)
let key_range schema cond =
  let key_col = (Schema.key_column schema).Schema.col_name in
  let key_ty = (Schema.key_column schema).Schema.col_type in
  let just_above v = Schema.encode_key v ^ "\x00" in
  let merge_lo a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (if String.compare a b >= 0 then a else b)
  in
  let merge_hi a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (if String.compare a b <= 0 then a else b)
  in
  let rec go = function
    | C_compare (col, op, lit) when String.equal col key_col -> (
        match op with
        | Lt -> (None, Some (Schema.encode_key (value_of_literal key_ty lit)))
        | Le -> (None, Some (just_above (value_of_literal key_ty lit)))
        | Gt -> (Some (just_above (value_of_literal key_ty lit)), None)
        | Ge -> (Some (Schema.encode_key (value_of_literal key_ty lit)), None)
        | Eq | Neq -> (None, None))
    | C_and (a, b) ->
        let la, ha = go a and lb, hb = go b in
        (merge_lo la lb, merge_hi ha hb)
    | _ -> (None, None)
  in
  go cond

(* --- transaction plumbing ----------------------------------------------- *)

let in_txn session f =
  match session.txn with
  | Some txn -> f txn
  | None -> Db.Session.with_txn ~isolation:session.isolation session.dbs f

(* A stored key as the value it encodes. *)
let pp_key ppf key =
  match Schema.decode_key key with
  | v -> Schema.pp_value ppf v
  | exception _ -> Fmt.pf ppf "%S" key

(* --- statement execution -------------------------------------------------- *)

let schema_of_defs columns =
  (match columns with
  | [] -> fail "a table needs at least one column"
  | first :: rest ->
      if not first.cd_primary && List.exists (fun c -> c.cd_primary) rest then
        fail "PRIMARY KEY must be the first column"
      );
  Schema.make
    (List.map
       (fun cd ->
         match Schema.type_of_name cd.cd_type with
         | Some ty -> { Schema.col_name = cd.cd_name; col_type = ty }
         | None -> fail "unknown type %s" cd.cd_type)
       columns)

let header_of schema = List.map (fun c -> c.Schema.col_name) (Schema.columns schema)

let project schema columns row =
  match columns with
  | None -> row
  | Some cols ->
      List.map
        (fun c ->
          match Schema.column_index schema c with
          | Some i -> List.nth row i
          | None -> fail "unknown column %s" c)
        cols

let typed_row schema literals =
  let cols = Schema.columns schema in
  if List.length cols <> List.length literals then
    fail "expected %d values, got %d" (List.length cols) (List.length literals);
  List.map2 (fun c lit -> value_of_literal c.Schema.col_type lit) cols literals

let exec session stmt =
  match stmt with
  | Create_table { kind; name; columns } ->
      let mode =
        match kind with
        | K_immortal -> Db.Immortal
        | K_snapshot -> Db.Snapshot_table
        | K_conventional -> Db.Conventional
      in
      let schema = schema_of_defs columns in
      Db.create_table session.db ~name ~mode ~schema;
      R_ok (Printf.sprintf "table %s created" name)
  | Alter_enable_snapshot name -> (
      match Db.enable_snapshot session.db ~table:name with
      | n -> R_ok (Printf.sprintf "table %s: snapshot versioning enabled (%d rows)" name n)
      | exception Db.No_such_table _ -> fail "no such table %s" name
      | exception Invalid_argument m -> fail "%s" m)
  | Drop_table name ->
      if Db.drop_table session.db name then R_ok (Printf.sprintf "table %s dropped" name)
      else fail "no such table %s" name
  | Insert { table; values } ->
      let ti = Db.table_info session.db table in
      let row = typed_row ti.Imdb_core.Catalog.ti_schema values in
      in_txn session (fun txn -> Db.insert_row session.db txn ~table row);
      R_ok "1 row inserted"
  | Update { table; assignments; where } ->
      let ti = Db.table_info session.db table in
      let schema = ti.Imdb_core.Catalog.ti_schema in
      let apply row =
        List.mapi
          (fun i v ->
            let c = List.nth (Schema.columns schema) i in
            match List.assoc_opt c.Schema.col_name assignments with
            | Some lit -> value_of_literal c.Schema.col_type lit
            | None -> v)
          row
      in
      List.iter
        (fun (col, _) ->
          if Schema.column_index schema col = None then fail "unknown column %s" col;
          if String.equal col (Schema.key_column schema).Schema.col_name then
            fail "cannot update the primary key")
        assignments;
      let count =
        in_txn session (fun txn ->
            match key_equality schema where with
            | Some key -> (
                match Db.get_row session.db txn ~table ~key with
                | Some row when eval_condition schema row where ->
                    Db.update_row session.db txn ~table (apply row);
                    1
                | Some _ | None -> 0)
            | None ->
                let victims =
                  List.filter (fun r -> eval_condition schema r where)
                    (Db.scan_rows session.db txn ~table)
                in
                List.iter (fun r -> Db.update_row session.db txn ~table (apply r)) victims;
                List.length victims)
      in
      R_ok (Printf.sprintf "%d row(s) updated" count)
  | Delete { table; where } ->
      let ti = Db.table_info session.db table in
      let schema = ti.Imdb_core.Catalog.ti_schema in
      let count =
        in_txn session (fun txn ->
            match key_equality schema where with
            | Some key -> (
                match Db.get_row session.db txn ~table ~key with
                | Some row when eval_condition schema row where ->
                    Db.delete_row session.db txn ~table ~key;
                    1
                | Some _ | None -> 0)
            | None ->
                let victims =
                  List.filter (fun r -> eval_condition schema r where)
                    (Db.scan_rows session.db txn ~table)
                in
                List.iter
                  (fun r -> Db.delete_row session.db txn ~table ~key:(List.hd r))
                  victims;
                List.length victims)
      in
      R_ok (Printf.sprintf "%d row(s) deleted" count)
  | Select { columns; table; where } ->
      let ti = Db.table_info session.db table in
      let schema = ti.Imdb_core.Catalog.ti_schema in
      let rows =
        in_txn session (fun txn ->
            let all =
              match key_equality schema where with
              | Some key -> (
                  match Db.get_row session.db txn ~table ~key with
                  | Some r -> [ r ]
                  | None -> [])
              | None ->
                  (* the scan dispatches on the transaction's isolation
                     (current / snapshot / AS OF); key-range conjuncts
                     bound it to the relevant pages *)
                  let lo, hi = key_range schema where in
                  Db.scan_rows ?lo ?hi session.db txn ~table
            in
            List.filter (fun r -> eval_condition schema r where) all)
      in
      let header =
        match columns with None -> header_of schema | Some cols -> cols
      in
      R_rows { header; rows = List.map (project schema columns) rows }
  | Select_history { table; key } ->
      let hist =
        in_txn session (fun txn ->
            Db.history_rows session.db txn ~table ~key:(untyped_value key))
      in
      R_history hist
  | Begin_tran { as_of } ->
      if session.txn <> None then fail "transaction already open";
      let isolation =
        match as_of with
        | Some s -> Db.As_of (Ts.of_string s)
        | None -> session.isolation
      in
      session.txn <- Some (Db.Session.begin_txn ~isolation session.dbs);
      R_ok "transaction started"
  | Commit_tran -> (
      match session.txn with
      | None -> fail "no open transaction"
      | Some txn ->
          session.txn <- None;
          let ts = Db.Session.commit session.dbs txn in
          R_ok
            (match ts with
            | Some ts -> Printf.sprintf "committed at %s" (Ts.to_string ts)
            | None -> "committed (read-only)"))
  | Rollback_tran -> (
      match session.txn with
      | None -> fail "no open transaction"
      | Some txn ->
          session.txn <- None;
          Db.Session.abort session.dbs txn;
          R_ok "rolled back")
  | Set_isolation `Serializable ->
      session.isolation <- Db.Serializable;
      R_ok "isolation: serializable"
  | Set_isolation `Snapshot ->
      session.isolation <- Db.Snapshot_isolation;
      R_ok "isolation: snapshot"
  | Checkpoint_stmt ->
      Db.checkpoint session.db;
      R_ok "checkpoint complete"
  | Metrics_stmt ->
      R_ok (Imdb_obs.Metrics.to_json_string (Db.metrics session.db))
  | Trace_stmt -> R_ok (Imdb_obs.Tracer.to_json_string (Db.tracer session.db))
  | Sessions_stmt -> R_ok (Imdb_obs.Json.to_string (Db.sessions_json session.db))
  | Locks_stmt -> R_ok (Imdb_obs.Json.to_string (Db.locks_json session.db))

let exec_string session src =
  List.map (fun stmt -> exec session stmt) (Parser.parse_script src)

let exec_iter session src f =
  List.iter (fun stmt -> f (exec session stmt)) (Parser.parse_script src)

(* The messages of the errors a statement is expected to raise, with
   stored keys decoded back to the value the user wrote. *)
let error_message = function
  | Exec_error msg | Parser.Parse_error msg | Lexer.Lex_error msg | Schema.Type_error msg ->
      Some msg
  | Db.No_such_table name -> Some ("no such table " ^ name)
  | Imdb_core.Table.Duplicate_key key -> Some (Fmt.str "duplicate key %a" pp_key key)
  | Imdb_core.Table.No_such_key key -> Some (Fmt.str "no such key %a" pp_key key)
  | Imdb_core.Table.Write_conflict { key; committed_at } ->
      Some
        (Fmt.str "write conflict on key %a (%s)" pp_key key
           (match committed_at with
           | Some ts -> "committed at " ^ Ts.to_string ts
           | None -> "its writer has not committed"))
  | _ -> None

(* --- result rendering ------------------------------------------------------ *)

let pp_result ppf = function
  | R_ok msg -> Fmt.pf ppf "%s" msg
  | R_rows { header; rows } ->
      Fmt.pf ppf "%s@." (String.concat " | " header);
      List.iter
        (fun row ->
          Fmt.pf ppf "%s@."
            (String.concat " | " (List.map (Fmt.str "%a" Schema.pp_value) row)))
        rows;
      Fmt.pf ppf "(%d rows)" (List.length rows)
  | R_history entries ->
      List.iter
        (fun (ts, row) ->
          match row with
          | None -> Fmt.pf ppf "%a  DELETED@." Ts.pp ts
          | Some r ->
              Fmt.pf ppf "%a  %s@." Ts.pp ts
                (String.concat " | " (List.map (Fmt.str "%a" Schema.pp_value) r)))
        entries;
      Fmt.pf ppf "(%d versions)" (List.length entries)
