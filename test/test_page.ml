(* Slotted pages: header fields, cell operations, compaction, and a
   model-based property over random operation sequences. *)

module P = Imdb_storage.Page
module Ts = Imdb_clock.Timestamp

let fresh ?(size = 8192) () =
  let b = Bytes.make size '\000' in
  P.format b ~page_id:7 ~page_type:P.P_data ~table_id:3 ~level:0 ();
  b

let test_header_fields () =
  let b = fresh () in
  Alcotest.(check int) "page id" 7 (P.page_id b);
  Alcotest.(check bool) "type" true (P.page_type b = P.P_data);
  Alcotest.(check int) "table id" 3 (P.table_id b);
  Alcotest.(check int) "slots" 0 (P.slot_count b);
  P.set_lsn b 42L;
  Alcotest.(check int64) "lsn" 42L (P.lsn b);
  P.set_history_pointer b 99;
  Alcotest.(check int) "history ptr" 99 (P.history_pointer b);
  let ts = Ts.make ~ttime:1000L ~sn:3 in
  P.set_split_time b ts;
  Alcotest.(check bool) "split time" true (Ts.equal ts (P.split_time b));
  P.set_next_page b 11;
  P.set_prev_page b 12;
  Alcotest.(check int) "next" 11 (P.next_page b);
  Alcotest.(check int) "prev" 12 (P.prev_page b)

let test_insert_read_delete () =
  let b = fresh () in
  let s0 = P.insert b (Bytes.of_string "alpha") in
  let s1 = P.insert b (Bytes.of_string "beta") in
  Alcotest.(check int) "slots assigned in order" 0 s0;
  Alcotest.(check int) "second slot" 1 s1;
  Alcotest.(check string) "read back" "alpha" (Bytes.to_string (P.read_cell b s0));
  Alcotest.(check int) "live count" 2 (P.live_count b);
  P.delete_slot b s0;
  Alcotest.(check bool) "slot dead" false (P.slot_live b s0);
  Alcotest.(check int) "live count after delete" 1 (P.live_count b);
  (* dead slot is reused first *)
  let s2 = P.insert b (Bytes.of_string "gamma") in
  Alcotest.(check int) "dead slot reused" s0 s2;
  Alcotest.(check string) "reused content" "gamma" (Bytes.to_string (P.read_cell b s2))

let test_patch_and_part () =
  let b = fresh () in
  let s = P.insert b (Bytes.of_string "hello world") in
  P.patch_cell b s ~at:6 ~src:(Bytes.of_string "WORLD");
  Alcotest.(check string) "patched" "hello WORLD" (Bytes.to_string (P.read_cell b s));
  (match P.patch_cell b s ~at:8 ~src:(Bytes.of_string "TOOLONG") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "patch out of bounds accepted")

let test_fill_and_fits () =
  let b = fresh ~size:512 () in
  let body = Bytes.make 60 'x' in
  let inserted = ref 0 in
  let rec fill () =
    match P.insert_slot b (Bytes.length body) with
    | None -> ()
    | Some slot ->
        Alcotest.(check int) "insert takes the slot insert_slot names" slot (P.insert b body);
        incr inserted;
        fill ()
  in
  fill ();
  Alcotest.(check bool) "page filled" true (!inserted >= 6);
  (match P.insert b body with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "insert into full page accepted");
  (* deleting makes room again (reclaimed via compaction) *)
  P.delete_slot b 0;
  Alcotest.(check (option int)) "space after delete, in the freed slot" (Some 0)
    (P.insert_slot b (Bytes.length body))

let test_compaction_preserves () =
  let b = fresh ~size:1024 () in
  let cells = List.init 8 (fun i -> Bytes.of_string (Printf.sprintf "cell-%d-%s" i (String.make i 'y'))) in
  let slots = List.map (fun c -> P.insert b c) cells in
  (* delete every other cell, then force compaction *)
  List.iteri (fun i s -> if i mod 2 = 0 then P.delete_slot b s) slots;
  P.compact b;
  Alcotest.(check int) "garbage zero" 0 (P.garbage b);
  List.iteri
    (fun i s ->
      if i mod 2 = 1 then
        Alcotest.(check string)
          (Printf.sprintf "cell %d intact" i)
          (Bytes.to_string (List.nth cells i))
          (Bytes.to_string (P.read_cell b s)))
    slots

let test_reserve_slots () =
  let b = fresh () in
  P.reserve_slots b 5;
  Alcotest.(check int) "slot count" 5 (P.slot_count b);
  Alcotest.(check int) "all dead" 0 (P.live_count b);
  P.insert_at_slot b 3 (Bytes.of_string "x");
  Alcotest.(check bool) "slot 3 live" true (P.slot_live b 3);
  Alcotest.(check bool) "slot 0 dead" false (P.slot_live b 0)

let test_seal_verify () =
  let b = fresh () in
  ignore (P.insert b (Bytes.of_string "data"));
  P.seal b;
  Alcotest.(check bool) "verifies" true (P.verify b);
  Bytes.set b 100 'z';
  Alcotest.(check bool) "corruption detected" false (P.verify b)

(* Model-based property: a random sequence of inserts/deletes/patches
   matches a simple association model, and accounting invariants hold. *)
let prop_page_model =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 120)
        (frequency
           [
             (6, map (fun n -> `Insert (n mod 50)) nat);
             (3, map (fun n -> `Delete n) nat);
             (2, map2 (fun a b -> `Patch (a, b)) nat nat);
           ]))
  in
  QCheck.Test.make ~name:"page ops vs model" ~count:100 (QCheck.make gen)
    (fun ops ->
      let b = fresh ~size:2048 () in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let counter = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Insert extra ->
              incr counter;
              let body = Printf.sprintf "body%d-%s" !counter (String.make extra 'p') in
              Option.iter
                (fun expect ->
                  let slot = P.insert b (Bytes.of_string body) in
                  if slot <> expect then
                    QCheck.Test.fail_reportf "insert took slot %d, insert_slot said %d"
                      slot expect;
                  Hashtbl.replace model slot body)
                (P.insert_slot b (String.length body))
          | `Delete n ->
              let live = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
              if live <> [] then begin
                let slot = List.nth (List.sort compare live) (n mod List.length live) in
                P.delete_slot b slot;
                Hashtbl.remove model slot
              end
          | `Patch (n, _) ->
              let live = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
              if live <> [] then begin
                let slot = List.nth (List.sort compare live) (n mod List.length live) in
                let body = Hashtbl.find model slot in
                if String.length body > 0 then begin
                  let patched = "Q" ^ String.sub body 1 (String.length body - 1) in
                  P.patch_cell b slot ~at:0 ~src:(Bytes.of_string "Q");
                  Hashtbl.replace model slot patched
                end
              end)
        ops;
      (* every model entry matches the page *)
      Hashtbl.iter
        (fun slot body ->
          if Bytes.to_string (P.read_cell b slot) <> body then
            QCheck.Test.fail_reportf "slot %d mismatch" slot)
        model;
      (* live count agrees *)
      if P.live_count b <> Hashtbl.length model then
        QCheck.Test.fail_reportf "live count %d vs model %d" (P.live_count b)
          (Hashtbl.length model);
      (* compaction preserves everything *)
      P.compact b;
      Hashtbl.iter
        (fun slot body ->
          if Bytes.to_string (P.read_cell b slot) <> body then
            QCheck.Test.fail_reportf "slot %d mismatch after compaction" slot)
        model;
      true)

let suite =
  [
    Alcotest.test_case "header fields" `Quick test_header_fields;
    Alcotest.test_case "insert/read/delete" `Quick test_insert_read_delete;
    Alcotest.test_case "patch & partial read" `Quick test_patch_and_part;
    Alcotest.test_case "fill & fits" `Quick test_fill_and_fits;
    Alcotest.test_case "compaction preserves" `Quick test_compaction_preserves;
    Alcotest.test_case "reserve slots" `Quick test_reserve_slots;
    Alcotest.test_case "seal & verify" `Quick test_seal_verify;
    QCheck_alcotest.to_alcotest prop_page_model;
  ]
