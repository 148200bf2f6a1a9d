(* Versioned pages: chains, stamping, as-of selection, and the time-split
   classification — including property tests of the split invariants. *)

module P = Imdb_storage.Page
module R = Imdb_storage.Record
module V = Imdb_version.Vpage
module Tid = Imdb_clock.Tid
module Ts = Imdb_clock.Timestamp

let fresh ?(size = 8192) () =
  let b = Bytes.make size '\000' in
  P.format b ~page_id:5 ~page_type:P.P_data ();
  b

let write page ?(stub = false) ~key ~payload ~tid () =
  match V.plan_insert page ~key ~payload ~tid:(Tid.of_int tid) ~delete_stub:stub with
  | Some pi ->
      V.apply_insert page pi;
      pi.V.pi_slot
  | None -> Alcotest.fail "page unexpectedly full"

let stamp page slot ms =
  R.set_in_page_ttime page slot (Tid.Stamped (Int64.of_int ms));
  R.set_in_page_sn page slot 0

let ts ms = Ts.make ~ttime:(Int64.of_int ms) ~sn:0

let test_chain_building () =
  let page = fresh () in
  let s1 = write page ~key:"a" ~payload:"v1" ~tid:1 () in
  let s2 = write page ~key:"a" ~payload:"v2" ~tid:2 () in
  let s3 = write page ~key:"a" ~payload:"v3" ~tid:3 () in
  (* the head is the newest; older versions are flagged non-current *)
  Alcotest.(check (option int)) "current is newest" (Some s3) (V.find_current page ~key:"a");
  Alcotest.(check bool) "old flagged" true
    (R.in_page_flags page s1 land R.f_non_current <> 0);
  let slots, tail = V.chain page ~slot:s3 in
  Alcotest.(check (list int)) "chain order" [ s3; s2; s1 ] slots;
  Alcotest.(check bool) "chain ends" true (tail = V.Chain_end);
  Alcotest.(check int) "all versions" 3 (List.length (V.all_versions_of page ~key:"a"))

let test_multiple_keys () =
  let page = fresh () in
  ignore (write page ~key:"a" ~payload:"a1" ~tid:1 ());
  ignore (write page ~key:"b" ~payload:"b1" ~tid:1 ());
  ignore (write page ~key:"a" ~payload:"a2" ~tid:2 ());
  Alcotest.(check int) "two heads" 2 (List.length (V.current_slots page));
  let dir = V.directory page in
  Alcotest.(check (list string)) "directory keys" [ "a"; "b" ] (Array.to_list dir.V.vd_keys);
  Alcotest.(check (list int)) "directory versions of a"
    (V.all_versions_of page ~key:"a")
    (Array.to_list (V.directory_versions dir ~key:"a"))

let test_stamping () =
  let page = fresh () in
  let s1 = write page ~key:"a" ~payload:"v1" ~tid:1 () in
  let s2 = write page ~key:"a" ~payload:"v2" ~tid:2 () in
  let b1 = write page ~key:"b" ~payload:"b1" ~tid:1 () in
  let stamped = ref [] in
  let on_stamp slot tid = stamped := (slot, Int64.to_int (Tid.to_int64 tid)) :: !stamped in
  let resolve tid =
    if Tid.equal tid (Tid.of_int 1) then V.Committed (ts 100) else V.Active
  in
  (* the unkeyed probe is the disjunction of the keyed ones *)
  let probes_agree what =
    Alcotest.(check bool) (what ^ ": probes agree") (V.has_unstamped page)
      (List.exists (fun key -> V.has_unstamped_record ~key page) [ "a"; "b"; "c" ])
  in
  probes_agree "fresh";
  (* keyed: only b's committed version, though a's first version shares
     the committed TID *)
  let n = V.stamp_record ~metrics:Imdb_obs.Metrics.null ~key:"b" page ~resolve ~on_stamp in
  Alcotest.(check int) "one of b stamped" 1 n;
  Alcotest.(check (list (pair int int))) "on_stamp saw b's slot" [ (b1, 1) ] !stamped;
  Alcotest.(check bool) "a untouched" true (R.in_page_timestamp page s1 = None);
  Alcotest.(check bool) "b done" false (V.has_unstamped_record ~key:"b" page);
  Alcotest.(check bool) "a pending" true (V.has_unstamped_record ~key:"a" page);
  Alcotest.(check bool) "absent key" false (V.has_unstamped_record ~key:"c" page);
  probes_agree "after keyed";
  (* unkeyed: every committed version; the active one stays *)
  stamped := [];
  let n = V.stamp page ~resolve ~on_stamp in
  Alcotest.(check int) "one more stamped" 1 n;
  Alcotest.(check (list (pair int int))) "on_stamp saw a's slot" [ (s1, 1) ] !stamped;
  Alcotest.(check bool) "stamped value" true
    (R.in_page_timestamp page s1 = Some (ts 100));
  Alcotest.(check bool) "active left alone" true (R.in_page_timestamp page s2 = None);
  Alcotest.(check bool) "still has unstamped" true (V.has_unstamped page);
  probes_agree "after unkeyed";
  (* tid 2 commits *)
  let n2 =
    V.stamp_record ~metrics:Imdb_obs.Metrics.null ~key:"a" page
      ~resolve:(fun _ -> V.Committed (ts 200))
      ~on_stamp
  in
  Alcotest.(check int) "second stamped" 1 n2;
  Alcotest.(check bool) "no unstamped left" false (V.has_unstamped page);
  probes_agree "all stamped"

let test_find_stamped_as_of () =
  let page = fresh () in
  let s1 = write page ~key:"a" ~payload:"v1" ~tid:1 () in
  let s2 = write page ~key:"a" ~payload:"v2" ~tid:2 () in
  let s3 = write page ~key:"a" ~payload:"v3" ~tid:3 () in
  stamp page s1 100;
  stamp page s2 200;
  stamp page s3 300;
  let check_at t expect =
    Alcotest.(check (option int))
      (Printf.sprintf "as of %d" t)
      expect
      (V.find_stamped_as_of page ~key:"a" ~asof:(ts t))
  in
  check_at 50 None;
  check_at 100 (Some s1);
  check_at 150 (Some s1);
  check_at 200 (Some s2);
  check_at 999 (Some s3)

let test_as_of_tie_break () =
  (* several updates by one transaction share a timestamp: the newest
     (chain head of the tie group) must win *)
  let page = fresh () in
  let s1 = write page ~key:"a" ~payload:"first" ~tid:1 () in
  let s2 = write page ~key:"a" ~payload:"second" ~tid:1 () in
  stamp page s1 100;
  stamp page s2 100;
  Alcotest.(check (option int)) "newest of tie" (Some s2)
    (V.find_stamped_as_of page ~key:"a" ~asof:(ts 100))

let test_delete_stub_chain () =
  let page = fresh () in
  let s1 = write page ~key:"a" ~payload:"alive" ~tid:1 () in
  let s2 = write page ~key:"a" ~payload:"" ~stub:true ~tid:2 () in
  stamp page s1 100;
  stamp page s2 200;
  (* the stub is the current version *)
  Alcotest.(check (option int)) "stub is head" (Some s2) (V.find_current page ~key:"a");
  Alcotest.(check bool) "stub flag" true
    (R.in_page_flags page s2 land R.f_delete_stub <> 0);
  (* as-of before deletion sees the record; at deletion sees the stub *)
  Alcotest.(check (option int)) "before delete" (Some s1)
    (V.find_stamped_as_of page ~key:"a" ~asof:(ts 150));
  Alcotest.(check (option int)) "at delete" (Some s2)
    (V.find_stamped_as_of page ~key:"a" ~asof:(ts 200))

(* --- time splits ----------------------------------------------------------- *)

(* Build a page with a deterministic multi-key history, split it, and
   check the Fig. 3 classification plus the fundamental invariant: every
   version alive in a page's time range is present in that page. *)

type version_spec = { vkey : string; vms : int option (* None = uncommitted *); vstub : bool }

let build_page specs =
  let page = fresh () in
  List.iteri
    (fun i spec ->
      let slot =
        write page ~key:spec.vkey ~stub:spec.vstub
          ~payload:(Printf.sprintf "%s@%d" spec.vkey i)
          ~tid:(1000 + i) ()
      in
      match spec.vms with Some ms -> stamp page slot ms | None -> ())
    specs;
  page

(* Reference visibility: among stamped versions of [key] in [specs] (in
   insertion order = oldest first), the visible payload at time [t],
   where a newer version ends the previous one and stubs mean absent. *)
let reference_visible specs ~key ~t =
  let versions =
    List.mapi (fun i s -> (i, s)) specs
    |> List.filter (fun (_, s) -> s.vkey = key && s.vms <> None)
    |> List.filter (fun (_, s) -> Option.get s.vms <= t)
  in
  match List.rev versions with
  | [] -> None
  | (i, s) :: _ -> if s.vstub then None else Some (Printf.sprintf "%s@%d" key i)

let test_fig3_classification () =
  (* the paper's example: split at 300 *)
  let specs =
    [
      { vkey = "A"; vms = Some 100; vstub = false };
      { vkey = "B"; vms = Some 120; vstub = false };
      { vkey = "C"; vms = Some 110; vstub = false };
      { vkey = "C"; vms = Some 200; vstub = false };
      { vkey = "B"; vms = Some 400; vstub = false };
      { vkey = "C"; vms = Some 450; vstub = true };
    ]
  in
  let page = build_page specs in
  let images = V.time_split ~page ~split_time:(ts 300) ~history_page_id:6 () in
  Alcotest.(check int) "three redundant copies" 3 images.V.si_copied;
  (* current page: A(100), B(120), B(400), C(200), C-stub(450) = 5 *)
  Alcotest.(check int) "current live" 5 images.V.si_current_live;
  (* history page: A(100), B(120), C(110), C(200) = 4 *)
  Alcotest.(check int) "history live" 4 images.V.si_history_live;
  (* headers *)
  Alcotest.(check bool) "current split time" true
    (Ts.equal (P.split_time images.V.si_current) (ts 300));
  Alcotest.(check int) "current history ptr" 6 (P.history_pointer images.V.si_current);
  Alcotest.(check bool) "history covers from zero" true
    (Ts.equal (P.split_time images.V.si_history) Ts.zero)

let test_split_preserves_current_slots () =
  let specs =
    [
      { vkey = "A"; vms = Some 100; vstub = false };
      { vkey = "A"; vms = Some 200; vstub = false };
      { vkey = "B"; vms = Some 150; vstub = false };
      { vkey = "B"; vms = None; vstub = false (* uncommitted *) };
    ]
  in
  let page = build_page specs in
  let a_head = Option.get (V.find_current page ~key:"A") in
  let b_head = Option.get (V.find_current page ~key:"B") in
  let images = V.time_split ~page ~split_time:(ts 300) ~history_page_id:6 () in
  let cur = images.V.si_current in
  (* survivors keep their slot numbers (in-flight undo depends on it) *)
  Alcotest.(check (option int)) "A head slot stable" (Some a_head)
    (V.find_current cur ~key:"A");
  Alcotest.(check (option int)) "B head slot stable" (Some b_head)
    (V.find_current cur ~key:"B");
  (* the uncommitted version stayed current-only *)
  Alcotest.(check bool) "uncommitted unstamped" true (V.has_unstamped cur);
  Alcotest.(check bool) "history fully stamped" false
    (V.has_unstamped images.V.si_history)

(* Property: random histories split at random times keep every reference-
   visible state readable from the correct page. *)
let prop_time_split_completeness =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 25 in
      let* stamped = list_size (return n)
        (triple (int_range 0 3) (int_range 1 40) bool)
      in
      return stamped)
  in
  QCheck.Test.make ~name:"time split preserves visibility" ~count:150
    (QCheck.make gen)
    (fun raw ->
      (* build a monotone history over keys k0..k3 *)
      let time = ref 0 in
      let specs =
        List.map
          (fun (k, dt, stub) ->
            time := !time + dt;
            { vkey = Printf.sprintf "k%d" k; vms = Some !time; vstub = stub })
          raw
      in
      let page = build_page specs in
      let split_ms = 1 + (!time / 2) in
      let images = V.time_split ~page ~split_time:(ts split_ms) ~history_page_id:6 () in
      (* probe every key at every interesting time against the reference *)
      let keys = List.sort_uniq compare (List.map (fun s -> s.vkey) specs) in
      let times = List.filter_map (fun s -> s.vms) specs in
      let ok = ref true in
      List.iter
        (fun key ->
          List.iter
            (fun t ->
              let expect = reference_visible specs ~key ~t in
              (* pick the page covering t, as the engine would *)
              let target =
                if t >= split_ms then images.V.si_current else images.V.si_history
              in
              let got =
                match V.find_stamped_as_of target ~key ~asof:(ts t) with
                | Some slot
                  when R.in_page_flags target slot land R.f_delete_stub = 0 ->
                    Some (R.in_page_payload target slot)
                | Some _ | None -> None
              in
              if got <> expect then begin
                ok := false;
                QCheck.Test.fail_reportf
                  "key %s at %d (split %d): expected %s, got %s" key t split_ms
                  (Option.value expect ~default:"-")
                  (Option.value got ~default:"-")
              end)
            (0 :: times))
        keys;
      !ok)

(* Property: one page split again and again, as the engine leaves it —
   rollbacks free slots that later writes reuse, versions still
   uncommitted at a split commit or roll back after it, delete stubs, and
   chains that run on into the previous history page.  At every split no
   version is lost, every VP names a version of its own key (locally, or
   through [f_vp_in_history] in the page the history pointer names), and
   the page chain answers AS OF at every committed time. *)

(* Every VP in [img] names a live version of the same key: locally, or in
   [older] (the page [img]'s history pointer names) under
   [f_vp_in_history]. *)
let links_resolve ~what img ~older =
  P.iter_live img (fun slot ->
      let vp = R.in_page_vp img slot in
      if vp <> R.no_vp then begin
        let target =
          if R.in_page_flags img slot land R.f_vp_in_history <> 0 then older else Some img
        in
        let key = R.in_page_key img slot in
        match target with
        | Some t when vp < P.slot_count t && P.slot_live t vp && R.in_page_key t vp = key -> ()
        | Some _ | None ->
            QCheck.Test.fail_reportf "%s: slot %d (key %s) has a VP %d that names no version of its key"
              what slot key vp
      end)

let prop_time_split_generations =
  let gen =
    QCheck.Gen.(
      list_size (int_range 3 6)
        (pair
           (list_size (int_range 3 14) (triple (int_range 0 3) (int_range 0 9) (int_range 1 5)))
           (pair (int_range 0 1000) bool)))
  in
  QCheck.Test.make ~name:"repeated time splits keep versions, links and AS OF" ~count:200
    (QCheck.make gen) (fun generations ->
      let page = ref (fresh ~size:4096 ()) in
      let histories = ref [] (* newest first *) in
      let committed = ref [] (* (key, ms, payload; None = stub), newest first *) in
      let pending = Hashtbl.create 4 (* key -> (slot, payload) of an uncommitted version *) in
      let now = ref 0 and tid = ref 0 and split_ms = ref 0 in
      let commit key slot payload dt =
        now := !now + dt;
        stamp !page slot !now;
        committed := (key, !now, payload) :: !committed
      in
      (* Txnmgr.undo_version on a page image *)
      let roll_back slot =
        let vp = R.in_page_vp !page slot in
        let local = vp <> R.no_vp && R.in_page_flags !page slot land R.f_vp_in_history = 0 in
        P.delete_slot !page slot;
        if local then
          R.set_in_page_flags !page vp (R.in_page_flags !page vp land lnot R.f_non_current)
      in
      let write key ~stub =
        incr tid;
        let payload = Printf.sprintf "%s@%d" key !tid in
        match V.plan_insert !page ~key ~payload ~tid:(Tid.of_int !tid) ~delete_stub:stub with
        | None -> None
        | Some pi ->
            V.apply_insert !page pi;
            Some (pi.V.pi_slot, if stub then None else Some payload)
      in
      let live_head key =
        match V.find_current !page ~key with
        | Some slot -> R.in_page_flags !page slot land R.f_delete_stub = 0
        | None -> false
      in
      let as_of_ok () =
        let chain = !page :: !histories in
        List.iter
          (fun (_, t, _) ->
            List.iter
              (fun key ->
                let expect =
                  match List.find_opt (fun (k, ms, _) -> k = key && ms <= t) !committed with
                  | Some (_, _, payload) -> payload
                  | None -> None
                in
                let target = List.find (fun p -> Ts.compare (P.split_time p) (ts t) <= 0) chain in
                let got =
                  match V.find_stamped_as_of target ~key ~asof:(ts t) with
                  | Some slot when R.in_page_flags target slot land R.f_delete_stub = 0 ->
                      Some (R.in_page_payload target slot)
                  | Some _ | None -> None
                in
                if got <> expect then
                  QCheck.Test.fail_reportf "key %s as of %d: expected %s, got %s" key t
                    (Option.value expect ~default:"-") (Option.value got ~default:"-"))
              [ "k0"; "k1"; "k2"; "k3" ])
          !committed
      in
      List.iteri
        (fun g (ops, (pick, with_sn)) ->
          (* one generation of writes; a full page ends it early *)
          let rec run = function
            | [] -> ()
            | (k, act, dt) :: rest -> (
                let key = Printf.sprintf "k%d" k in
                match Hashtbl.find_opt pending key with
                | Some (slot, payload) ->
                    (* the open transaction on [key] ends first *)
                    Hashtbl.remove pending key;
                    if act land 1 = 0 then commit key slot payload dt else roll_back slot;
                    run rest
                | None -> (
                    match write key ~stub:(act = 9 && live_head key) with
                    | None -> ()
                    | Some (slot, payload) ->
                        if act <= 5 || act = 9 then commit key slot payload dt
                        else if act <= 7 then roll_back slot
                        else Hashtbl.replace pending key (slot, payload);
                        run rest))
          in
          run ops;
          (* split at a time after the last split and no later than just
             after the last commit, as a deferred flush split may *)
          let lo = !split_ms + 1 in
          let s_ms = lo + (pick mod max 1 (!now - lo + 1)) in
          let s = Ts.make ~ttime:(Int64.of_int s_ms) ~sn:(if with_sn then 1 else 0) in
          split_ms := s_ms;
          now := max !now s_ms;
          let live = P.live_count !page in
          let images = V.time_split ~page:!page ~split_time:s ~history_page_id:(100 + g) () in
          if images.V.si_current_live + images.V.si_history_live - images.V.si_copied <> live
          then
            QCheck.Test.fail_reportf "split %d: %d current + %d history - %d copied <> %d live" g
              images.V.si_current_live images.V.si_history_live images.V.si_copied live;
          links_resolve ~what:(Printf.sprintf "split %d current" g) images.V.si_current
            ~older:(Some images.V.si_history);
          links_resolve ~what:(Printf.sprintf "split %d history" g) images.V.si_history
            ~older:(match !histories with h :: _ -> Some h | [] -> None);
          histories := images.V.si_history :: !histories;
          page := images.V.si_current;
          as_of_ok ())
        generations;
      true)

(* Property: key split preserves every version and routes keys correctly. *)
let prop_key_split =
  let gen = QCheck.Gen.(list_size (int_range 4 25) (pair (int_range 0 9) (int_range 1 30))) in
  QCheck.Test.make ~name:"key split preserves versions" ~count:150 (QCheck.make gen)
    (fun raw ->
      let time = ref 0 in
      let specs =
        List.map
          (fun (k, dt) ->
            time := !time + dt;
            { vkey = Printf.sprintf "k%d" k; vms = Some !time; vstub = false })
          raw
      in
      let page = build_page specs in
      let keys = Array.to_list (V.directory page).V.vd_keys in
      if List.length keys < 2 then true
      else begin
        let ks = V.key_split ~page ~right_page_id:7 () in
        let count_versions img key = List.length (V.all_versions_of img ~key) in
        List.for_all
          (fun key ->
            let total = count_versions page key in
            let left = count_versions ks.V.ks_left key in
            let right = count_versions ks.V.ks_right key in
            let correct_side =
              if String.compare key ks.V.ks_separator < 0 then
                left = total && right = 0
              else left = 0 && right = total
            in
            if not correct_side then
              QCheck.Test.fail_reportf "key %s: %d = %d + %d (sep %s)" key total left
                right ks.V.ks_separator;
            correct_side)
          keys
      end)

(* Property: on random pages — dead slots, several versions per key,
   delete stubs, unstamped and tied versions, the empty page — the
   one-pass directory answers exactly what the per-key slot scans do. *)
let prop_directory =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40)
           (quad (int_range 0 5) bool (int_range 0 12) (int_range 0 5)))
        (list_size (int_range 0 8) (int_range 0 39)))
  in
  QCheck.Test.make ~name:"version directory = per-key slot scans" ~count:300
    (QCheck.make gen) (fun (writes, kills) ->
      let page = fresh ~size:4096 () in
      (* stamp 0 leaves a version unstamped; small stamp ranges make ties *)
      List.iteri
        (fun i (k, stub, ms, tid) ->
          let slot =
            write page ~key:(Printf.sprintf "k%d" k) ~stub ~payload:(string_of_int i)
              ~tid:(1 + tid) ()
          in
          if ms > 0 then stamp page slot (ms * 10))
        writes;
      List.iter
        (fun slot ->
          if slot < P.slot_count page && P.slot_live page slot then P.delete_slot page slot)
        kills;
      let dir = V.directory page in
      let live_keys =
        P.fold_live page ~init:[] ~f:(fun acc slot -> R.in_page_key page slot :: acc)
        |> List.sort_uniq String.compare
      in
      if Array.to_list dir.V.vd_keys <> live_keys then
        QCheck.Test.fail_report "directory keys are not the sorted distinct live keys";
      (* every stamp (ties resolve there), just below and just after *)
      let times =
        List.concat_map
          (fun (_, _, ms, _) -> if ms > 0 then [ (ms * 10) - 1; ms * 10; (ms * 10) + 5 ] else [])
          writes
      in
      List.iter
        (fun key ->
          let slots = V.directory_versions dir ~key in
          if Array.to_list slots <> V.all_versions_of page ~key then
            QCheck.Test.fail_reportf "key %s: directory slots differ from all_versions_of" key;
          List.iter
            (fun t ->
              if
                V.stamped_as_of page slots ~asof:(ts t)
                <> V.find_stamped_as_of page ~key ~asof:(ts t)
              then QCheck.Test.fail_reportf "key %s as of %d: directory answer differs" key t)
            (0 :: 1000 :: times))
        ("absent" :: live_keys);
      true)

let test_gc_versions () =
  let specs =
    [
      { vkey = "a"; vms = Some 100; vstub = false };
      { vkey = "a"; vms = Some 200; vstub = false };
      { vkey = "a"; vms = Some 300; vstub = false };
      { vkey = "b"; vms = Some 150; vstub = true };
      { vkey = "c"; vms = None; vstub = false };
    ]
  in
  let page = build_page specs in
  (* one active snapshot at 250: a@100 is invisible to it (dead at 200);
     a@200 is its visible version; chain heads and uncommitted versions
     always survive *)
  let img, dropped = V.gc_versions ~page ~snapshots:[ ts 250 ] in
  Alcotest.(check int) "one dropped" 1 dropped;
  Alcotest.(check (option int)) "snapshot read still works"
    (V.find_stamped_as_of img ~key:"a" ~asof:(ts 250) )
    (V.find_stamped_as_of img ~key:"a" ~asof:(ts 299));
  (* newest version still current *)
  (match V.find_current img ~key:"a" with
  | Some slot -> Alcotest.(check bool) "current is 300" true
      (R.in_page_timestamp img slot = Some (ts 300))
  | None -> Alcotest.fail "lost the current version");
  (* uncommitted survives GC *)
  Alcotest.(check bool) "uncommitted kept" true (V.find_current img ~key:"c" <> None);
  (* b's stub is a chain head: kept, so reads keep saying "deleted" *)
  (match V.find_current img ~key:"b" with
  | Some slot ->
      Alcotest.(check bool) "stub kept" true
        (R.in_page_flags img slot land R.f_delete_stub <> 0)
  | None -> Alcotest.fail "stub head dropped");
  (* with no active snapshots, only heads and uncommitted versions remain *)
  let img2, dropped2 = V.gc_versions ~page ~snapshots:[] in
  Alcotest.(check int) "aggressive GC" 2 dropped2;
  Alcotest.(check bool) "current still reads" true
    (V.find_current img2 ~key:"a" <> None)

let suite =
  [
    Alcotest.test_case "chain building" `Quick test_chain_building;
    Alcotest.test_case "multiple keys" `Quick test_multiple_keys;
    Alcotest.test_case "stamping" `Quick test_stamping;
    Alcotest.test_case "as-of selection" `Quick test_find_stamped_as_of;
    Alcotest.test_case "as-of tie break" `Quick test_as_of_tie_break;
    Alcotest.test_case "delete stub chain" `Quick test_delete_stub_chain;
    Alcotest.test_case "Fig 3 classification" `Quick test_fig3_classification;
    Alcotest.test_case "split preserves slots" `Quick test_split_preserves_current_slots;
    QCheck_alcotest.to_alcotest prop_time_split_completeness;
    QCheck_alcotest.to_alcotest prop_time_split_generations;
    QCheck_alcotest.to_alcotest prop_key_split;
    QCheck_alcotest.to_alcotest prop_directory;
    Alcotest.test_case "snapshot version GC" `Quick test_gc_versions;
  ]
