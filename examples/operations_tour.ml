(* Operations tour: the administrative features around the engine —
   ALTER TABLE ENABLE SNAPSHOT (paper §4.1), checkpoints and PTT garbage
   collection (§2.2), vacuum (§2.2's remedy for crash-orphaned timestamp
   entries), and queryable backup (§7.2).

     dune exec examples/operations_tour.exe *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Sql = Imdb_sql.Executor

let ptt_count db = Imdb_tstamp.Ptt.count (E.ptt_exn (Db.engine db))

let () =
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~clock () in
  let s = Sql.make_session db in
  let exec src =
    List.iter (fun r -> Fmt.pr "  %a@." Sql.pp_result r) (Sql.exec_string s src)
  in
  let tick () = Imdb_clock.Clock.advance clock 20L in

  Fmt.pr "--- 1. a conventional table gains snapshot versioning (ALTER, paper 4.1)@.";
  exec "CREATE TABLE sensors (id INT PRIMARY KEY, reading INT)";
  tick ();
  exec "INSERT INTO sensors VALUES (1, 20)";
  exec "INSERT INTO sensors VALUES (2, 21)";
  exec "ALTER TABLE sensors ENABLE SNAPSHOT";
  (* snapshot readers are now stable under concurrent updates *)
  let reader = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  tick ();
  exec "UPDATE sensors SET reading = 99 WHERE id = 1";
  (match Db.get_row db reader ~table:"sensors" ~key:(S.V_int 1) with
  | Some [ _; S.V_int r ] -> Fmt.pr "  snapshot reader still sees reading=%d@." r
  | _ -> ());
  ignore (Db.commit db reader);

  Fmt.pr "@.--- 2. the persistent timestamp table and its garbage collection@.";
  exec "CREATE IMMORTAL TABLE journal (id INT PRIMARY KEY, note VARCHAR)";
  for i = 1 to 200 do
    tick ();
    Db.with_txn db (fun txn ->
        Db.upsert_row db txn ~table:"journal"
          [ S.V_int (i mod 10); S.V_string (Printf.sprintf "note %d" i) ])
  done;
  (* a commit writes only its Commit record; checkpoints post the
     mappings some version may still need *)
  Fmt.pr "  after 200 commits, PTT holds %d mappings (posted at checkpoints)@."
    (ptt_count db);
  Db.checkpoint db;
  Db.checkpoint db;
  Fmt.pr "  after two checkpoints (the still-unstamped versions' mappings): %d@."
    (ptt_count db);

  Fmt.pr "@.--- 3. a crash orphans entries; vacuum collects them (paper 2.2)@.";
  (* fresh traffic whose reference counts have not drained yet... *)
  for i = 201 to 300 do
    tick ();
    Db.with_txn db (fun txn ->
        Db.upsert_row db txn ~table:"journal"
          [ S.V_int (i mod 10); S.V_string (Printf.sprintf "note %d" i) ])
  done;
  Fmt.pr "  100 more commits, then a crash before any checkpoint...@.";
  let db = Db.crash_and_reopen ~clock db in
  Fmt.pr "  after recovery, PTT holds %d (recovery posted the commits it read back;@."
    (ptt_count db);
  Fmt.pr "  their counts were volatile)@.";
  Db.checkpoint db;
  Db.checkpoint db;
  Fmt.pr "  checkpoints cannot collect the orphans: %d@." (ptt_count db);
  let removed = Db.vacuum db in
  Fmt.pr "  vacuum forced timestamping to completion: %d collected, %d left@." removed
    (ptt_count db);

  Fmt.pr "@.--- 4. queryable backup (paper 7.2)@.";
  let cut = Imdb_clock.Clock.last_issued clock in
  tick ();
  Db.with_txn db (fun txn ->
      Db.upsert_row db txn ~table:"journal" [ S.V_int 1; S.V_string "post-backup" ]);
  let dest = Db.open_memory () in
  let report = Imdb_core.Backup.extract ~src:db ~dest ~as_of:cut in
  let verified = Imdb_core.Backup.verify ~src:db ~dest ~as_of:cut in
  Fmt.pr "  extracted %d tables / %d rows as of the cut; %d rows verified@."
    report.Imdb_core.Backup.bk_tables report.Imdb_core.Backup.bk_rows verified;
  (* the backup is itself a live immortal database *)
  Db.with_txn dest (fun txn ->
      Db.upsert_row dest txn ~table:"journal" [ S.V_int 1; S.V_string "edited in backup" ]);
  Db.exec dest (fun txn ->
      Fmt.pr "  backup's own history of id=1 now has %d versions@."
        (List.length (Db.history_rows dest txn ~table:"journal" ~key:(S.V_int 1))));
  Db.close dest;
  Db.close db;
  Fmt.pr "@.done.@."
