(* Record layout: the 14-byte versioning tail and in-place accessors. *)

module P = Imdb_storage.Page
module R = Imdb_storage.Record
module Tid = Imdb_clock.Tid
module Ts = Imdb_clock.Timestamp

let sample =
  {
    R.flags = R.f_delete_stub;
    key = "some-key";
    payload = "some payload bytes";
    vp = 12;
    ttime = Tid.Unstamped (Tid.of_int 77);
    sn = 0;
  }

let test_roundtrip () =
  let cell = R.encode sample in
  Alcotest.(check int) "size" (R.size ~key:sample.R.key ~payload:sample.R.payload)
    (Bytes.length cell);
  let d = R.decode cell in
  Alcotest.(check bool) "equal" true (d = sample)

let prop_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:300
    QCheck.(quad small_string small_string (int_bound 0xFFFE) (int_bound 7))
    (fun (key, payload, vp, flags) ->
      let r =
        { R.flags; key; payload; vp; ttime = Tid.Stamped 123456L; sn = 42 }
      in
      R.decode (R.encode r) = r)

let test_in_page_accessors () =
  let page = Bytes.make 8192 '\000' in
  P.format page ~page_id:1 ~page_type:P.P_data ();
  let slot = P.insert page (R.encode sample) in
  Alcotest.(check string) "key" "some-key" (R.in_page_key page slot);
  Alcotest.(check bool) "key matches" true (R.in_page_key_matches page slot "some-key");
  Alcotest.(check bool) "key mismatch" false (R.in_page_key_matches page slot "some-keX");
  Alcotest.(check bool) "prefix is not a match" false
    (R.in_page_key_matches page slot "some-");
  Alcotest.(check int) "vp" 12 (R.in_page_vp page slot);
  Alcotest.(check int) "flags" R.f_delete_stub (R.in_page_flags page slot);
  Alcotest.(check bool) "unstamped" true (R.in_page_timestamp page slot = None);
  (* stamp it in place *)
  R.set_in_page_ttime page slot (Tid.Stamped 5000L);
  R.set_in_page_sn page slot 9;
  (match R.in_page_timestamp page slot with
  | Some ts ->
      Alcotest.(check bool) "stamped value" true
        (Ts.equal ts (Ts.make ~ttime:5000L ~sn:9))
  | None -> Alcotest.fail "expected a timestamp");
  (* rewire the chain pointer *)
  R.set_in_page_vp page slot 3;
  Alcotest.(check int) "vp updated" 3 (R.in_page_vp page slot);
  R.set_in_page_flags page slot (R.f_non_current lor R.f_vp_in_history);
  Alcotest.(check int) "flags updated" (R.f_non_current lor R.f_vp_in_history)
    (R.in_page_flags page slot)

let test_empty_fields () =
  let r =
    { R.flags = 0; key = ""; payload = ""; vp = R.no_vp; ttime = Tid.Stamped 0L; sn = 0 }
  in
  Alcotest.(check bool) "empty key/payload roundtrip" true (R.decode (R.encode r) = r)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "in-page accessors" `Quick test_in_page_accessors;
    Alcotest.test_case "empty fields" `Quick test_empty_fields;
  ]
