(* Interleaved concurrent transactions under snapshot isolation, checked
   against a reference model.

   A deterministic scheduler drives several logical sessions through
   random scripts of begin/read/write/commit/abort.  The model tracks the
   committed state (keyed by commit order), each transaction's snapshot,
   and its own writes; every read is validated against
   snapshot-plus-own-writes, and write conflicts must occur exactly when
   the engine's rules say: another active writer holds the record (lock
   conflict), or a competing writer committed after our snapshot
   (first-committer-wins). *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema

type session = {
  mutable txn : Db.txn option;
  mutable snapshot : (int * string) list; (* committed state at begin *)
  mutable own : (int * string option) list; (* own writes, newest first *)
  id : int;
}

let lookup_own s k = List.assoc_opt k s.own
let lookup_snap s k = List.assoc_opt k s.snapshot

let run_script ~seed ~steps =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* seed data *)
  let committed = ref [] in
  for k = 0 to 7 do
    tick clock;
    ignore (commit_write db (fun txn -> Db.insert_row db txn ~table:"t" (row k "init")));
    committed := (k, "init") :: !committed
  done;
  let rng = Imdb_util.Rng.create seed in
  let sessions = Array.init 4 (fun id -> { txn = None; snapshot = []; own = []; id }) in
  (* which session (if any) currently has an uncommitted write on a key *)
  let writer_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let release_writes s =
    Hashtbl.iter
      (fun k sid -> if sid = s.id then Hashtbl.remove writer_of k)
      (Hashtbl.copy writer_of)
  in
  for step = 1 to steps do
    let s = sessions.(Imdb_util.Rng.int rng 4) in
    match s.txn with
    | None ->
        (* begin a snapshot transaction *)
        tick clock;
        s.txn <- Some (Db.begin_txn ~isolation:Db.Snapshot_isolation db);
        s.snapshot <- !committed;
        s.own <- []
    | Some txn -> (
        match Imdb_util.Rng.int rng 10 with
        | 0 | 1 ->
            (* commit *)
            ignore (Db.commit db txn);
            List.iter
              (fun (k, v) ->
                committed := (k, Option.value v ~default:"__deleted__")
                             :: List.remove_assoc k !committed;
                if v = None then committed := List.remove_assoc k !committed)
              (List.rev s.own);
            release_writes s;
            s.txn <- None
        | 2 ->
            (* abort *)
            Db.abort db txn;
            release_writes s;
            s.txn <- None
        | 3 | 4 | 5 | 6 -> (
            (* read and validate against snapshot + own writes *)
            let k = Imdb_util.Rng.int rng 8 in
            let got =
              match Db.get_row db txn ~table:"t" ~key:(S.V_int k) with
              | Some [ _; S.V_string v ] -> Some v
              | Some _ -> Alcotest.fail "bad row"
              | None -> None
            in
            let expect =
              match lookup_own s k with
              | Some v -> v
              | None -> lookup_snap s k
            in
            if got <> expect then
              Alcotest.failf "step %d session %d key %d: read %s, expected %s" step
                s.id k
                (Option.value got ~default:"-")
                (Option.value expect ~default:"-"))
        | _ -> (
            (* write (update or delete) *)
            let k = Imdb_util.Rng.int rng 8 in
            let deleting = Imdb_util.Rng.int rng 5 = 0 in
            let v = Printf.sprintf "s%d@%d" s.id step in
            (* the model's conflict prediction *)
            let other_active_writer =
              match Hashtbl.find_opt writer_of k with
              | Some sid when sid <> s.id -> true
              | _ -> false
            in
            let committed_after_snapshot =
              (* the key's committed value changed since our snapshot *)
              List.assoc_opt k !committed <> lookup_snap s k
              ||
              (* or it was re-committed with the same value by someone
                 else after our snapshot: undetectable from values alone,
                 so the model treats value-equality as no-conflict; the
                 generator makes all values unique to avoid ambiguity *)
              false
            in
            (* returns whether an engine write was actually attempted —
               deletes of keys invisible to this transaction are skipped,
               and then no conflict assertion applies *)
            let attempt () =
              if deleting then (
                let visible =
                  match lookup_own s k with
                  | Some (Some _) -> true
                  | Some None -> false
                  | None -> lookup_snap s k <> None
                in
                if visible then begin
                  Db.delete_row db txn ~table:"t" ~key:(S.V_int k);
                  s.own <- (k, None) :: s.own;
                  Hashtbl.replace writer_of k s.id;
                  true
                end
                else false)
              else begin
                Db.upsert_row db txn ~table:"t" (row k v);
                s.own <- (k, Some v) :: s.own;
                Hashtbl.replace writer_of k s.id;
                true
              end
            in
            match attempt () with
            | attempted ->
                if attempted && other_active_writer then
                  Alcotest.failf "step %d: write granted over active writer on key %d"
                    step k;
                if attempted && committed_after_snapshot then
                  Alcotest.failf
                    "step %d: first-committer-wins violated on key %d (no conflict raised)"
                    step k
            | exception E.Deadlock_abort _ ->
                if not other_active_writer then
                  Alcotest.failf "step %d: spurious lock conflict on key %d" step k
            | exception Imdb_core.Table.Write_conflict _ ->
                (* the statement failed but the X lock, taken before
                   validation, is held until transaction end (strict 2PL
                   with no statement-level rollback) *)
                Hashtbl.replace writer_of k s.id;
                if not committed_after_snapshot then
                  Alcotest.failf "step %d: spurious write conflict on key %d" step k))
  done;
  (* drain: abort everything still open, then validate the final state *)
  Array.iter
    (fun s ->
      match s.txn with
      | Some txn ->
          (try Db.abort db txn with E.Txn_finished -> ());
          s.txn <- None
      | None -> ())
    sessions;
  Db.exec db (fun txn ->
      List.iter
        (fun r ->
          match r with
          | [ S.V_int k; S.V_string v ] ->
              if List.assoc_opt k !committed <> Some v then
                Alcotest.failf "final state: key %d has %s, model says %s" k v
                  (Option.value (List.assoc_opt k !committed) ~default:"-")
          | _ -> ())
        (Db.scan_rows db txn ~table:"t"));
  Db.close db

let test_many_seeds () =
  List.iter (fun seed -> run_script ~seed ~steps:300) [ 1; 7; 42; 99; 123; 2024 ]

let suite = [ Alcotest.test_case "SI interleaving vs model" `Quick test_many_seeds ]
