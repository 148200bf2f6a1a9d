(* Snapshot isolation (paper Sections 1.1, 2): readers are never blocked
   by writers, because they read a recent version instead of waiting for
   the current one; competing writers are resolved first-committer-wins.

     dune exec examples/snapshot_demo.exe *)

module Db = Imdb_core.Db
module S = Imdb_core.Schema

let schema =
  S.make
    [
      { S.col_name = "id"; col_type = S.T_int };
      { S.col_name = "stock"; col_type = S.T_int };
    ]

let show db txn label =
  match Db.get_row db txn ~table:"inventory" ~key:(S.V_int 1) with
  | Some [ _; S.V_int stock ] -> Fmt.pr "  %s sees stock=%d@." label stock
  | _ -> Fmt.pr "  %s sees (no row)@." label

let () =
  let db = Db.open_memory () in
  Db.create_table db ~name:"inventory" ~mode:Db.Immortal ~schema;
  Db.with_txn db (fun txn ->
      Db.insert_row db txn ~table:"inventory" [ S.V_int 1; S.V_int 100 ]);

  Fmt.pr "--- a long-running snapshot reader vs a stream of writers@.";
  let reader = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  show db reader "reader (snapshot taken)";
  (* writers commit while the reader is still open — no blocking *)
  for i = 1 to 3 do
    Db.with_txn db (fun w ->
        Db.update_row db w ~table:"inventory" [ S.V_int 1; S.V_int (100 - (10 * i)) ]);
    show db reader (Printf.sprintf "reader after writer %d committed" i)
  done;
  ignore (Db.commit db reader);
  Db.exec db (fun txn -> show db txn "fresh transaction");

  Fmt.pr "@.--- first committer wins between two snapshot writers@.";
  let w1 = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  let w2 = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  Db.update_row db w1 ~table:"inventory" [ S.V_int 1; S.V_int 50 ];
  ignore (Db.commit db w1);
  Fmt.pr "  writer 1 committed stock=50@.";
  (match Db.update_row db w2 ~table:"inventory" [ S.V_int 1; S.V_int 60 ] with
  | () -> Fmt.pr "  writer 2 unexpectedly succeeded?!@."
  | exception Imdb_core.Table.Write_conflict _ ->
      Fmt.pr "  writer 2: write conflict (first committer wins) -> abort@.";
      Db.abort db w2
  | exception Imdb_core.Engine.Deadlock_abort _ ->
      Fmt.pr "  writer 2: lock conflict -> abort@.";
      Db.abort db w2);
  Db.exec db (fun txn -> show db txn "final state");

  Fmt.pr "@.--- snapshot reads also work mid-transaction against own writes@.";
  let t = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  Db.update_row db t ~table:"inventory" [ S.V_int 1; S.V_int 42 ];
  show db t "writer (own uncommitted write)";
  Db.abort db t;
  Db.exec db (fun txn -> show db txn "after abort");
  Db.close db
