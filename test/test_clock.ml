(* imdb_clock: timestamps, TIDs, clock behavior. *)

module Ts = Imdb_clock.Timestamp
module Tid = Imdb_clock.Tid
module Clock = Imdb_clock.Clock

let test_timestamp_order () =
  let a = Ts.make ~ttime:100L ~sn:0 in
  let b = Ts.make ~ttime:100L ~sn:1 in
  let c = Ts.make ~ttime:120L ~sn:0 in
  Alcotest.(check bool) "sn orders within quantum" true (Ts.compare a b < 0);
  Alcotest.(check bool) "ttime dominates" true (Ts.compare b c < 0);
  Alcotest.(check bool) "zero below all" true (Ts.compare Ts.zero a < 0);
  Alcotest.(check bool) "infinity above all" true (Ts.compare c Ts.infinity < 0)

let test_timestamp_succ () =
  let a = Ts.make ~ttime:100L ~sn:5 in
  Alcotest.(check bool) "succ increments sn" true
    (Ts.equal (Ts.succ a) (Ts.make ~ttime:100L ~sn:6));
  (* sn overflow rolls into the next quantum *)
  let top = Ts.make ~ttime:100L ~sn:0xFFFFFFFF in
  Alcotest.(check bool) "sn overflow" true
    (Ts.equal (Ts.succ top) (Ts.make ~ttime:120L ~sn:0))

let test_timestamp_codec () =
  let b = Bytes.make 16 '\xff' in
  let ts = Ts.make ~ttime:1234567890123L ~sn:98765 in
  Ts.write b 2 ts;
  Alcotest.(check bool) "roundtrip" true (Ts.equal ts (Ts.read b 2))

let prop_timestamp_codec =
  QCheck.Test.make ~name:"timestamp codec roundtrip" ~count:500
    QCheck.(pair (map Int64.of_int (int_bound max_int)) (int_bound 0xFFFFFFFF))
    (fun (ttime, sn) ->
      let ts = Ts.make ~ttime ~sn in
      let b = Bytes.create Ts.on_disk_size in
      Ts.write b 0 ts;
      Ts.equal ts (Ts.read b 0))

let test_datetime_format_parse () =
  (* epoch *)
  let e = Ts.make ~ttime:0L ~sn:0 in
  Alcotest.(check string) "epoch" "1970-01-01 00:00:00.000+0" (Ts.to_string e);
  (* a known instant: 2004-08-12 10:15:20 UTC = 1092305720s *)
  let ts = Ts.of_string "2004-08-12 10:15:20" in
  Alcotest.(check int64) "paper's AS OF datetime" 1092305720000L (Ts.ttime ts);
  (* roundtrip through formatting *)
  let ts2 = Ts.of_string (Ts.to_string ts) in
  Alcotest.(check bool) "format/parse roundtrip" true (Ts.equal ts ts2);
  (* fractional seconds and sequence number *)
  let ts3 = Ts.of_string "2004-08-12 10:15:20.060+7" in
  Alcotest.(check int64) "millis" 1092305720060L (Ts.ttime ts3);
  Alcotest.(check int) "sn" 7 (Ts.sn ts3);
  (* bare date *)
  let ts4 = Ts.of_string "2004-08-12" in
  Alcotest.(check int64) "bare date" 1092268800000L (Ts.ttime ts4);
  (* malformed *)
  (match Ts.of_string "not a date" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected parse failure")

let prop_datetime_roundtrip =
  QCheck.Test.make ~name:"datetime format/parse roundtrip" ~count:300
    (* stay within year ~1970..2200, quantized millis *)
    QCheck.(int_bound 2_000_000_000)
    (fun secs ->
      let ts = Ts.make ~ttime:(Int64.mul (Int64.of_int secs) 1000L) ~sn:0 in
      Ts.equal ts (Ts.of_string (Ts.to_string ts)))

let test_tid_encoding () =
  let tid = Tid.of_int 42 in
  (match Tid.decode_ttime_field (Tid.encode_ttime_field (Tid.Unstamped tid)) with
  | Tid.Unstamped t -> Alcotest.(check bool) "tid roundtrip" true (Tid.equal t tid)
  | Tid.Stamped _ -> Alcotest.fail "lost the TID flag");
  (match Tid.decode_ttime_field (Tid.encode_ttime_field (Tid.Stamped 123456L)) with
  | Tid.Stamped ms -> Alcotest.(check int64) "time roundtrip" 123456L ms
  | Tid.Unstamped _ -> Alcotest.fail "spurious TID flag")

let test_clock_monotonic () =
  let c = Clock.create_logical ~start:1000L () in
  let t1 = Clock.next_commit_timestamp c in
  let t2 = Clock.next_commit_timestamp c in
  Alcotest.(check bool) "same quantum: sn increments" true
    (Ts.ttime t1 = Ts.ttime t2 && Ts.sn t2 = Ts.sn t1 + 1);
  Clock.advance c 20L;
  let t3 = Clock.next_commit_timestamp c in
  Alcotest.(check bool) "new quantum resets sn" true
    (Ts.compare t2 t3 < 0 && Ts.sn t3 = 0);
  (* observe raises the floor (recovery path) *)
  let future = Ts.make ~ttime:(Int64.add (Ts.ttime t3) 1000L) ~sn:5 in
  Clock.observe c future;
  let t4 = Clock.next_commit_timestamp c in
  Alcotest.(check bool) "no repeats after observe" true (Ts.compare future t4 < 0)

let test_clock_quantum () =
  Alcotest.(check int64) "quantize down" 100L (Ts.quantize 119L);
  Alcotest.(check int64) "exact multiple" 120L (Ts.quantize 120L);
  let c = Clock.create_logical ~start:1003L () in
  (* logical clock reports quantized starts *)
  Alcotest.(check int64) "quantized now" 1000L (Clock.now c)

let test_wall_clock () =
  let c = Clock.create_wall () in
  let t1 = Clock.next_commit_timestamp c in
  let t2 = Clock.next_commit_timestamp c in
  Alcotest.(check bool) "wall timestamps increase" true (Ts.compare t1 t2 < 0);
  (match Clock.advance c 1L with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wall clock must not advance manually")

let suite =
  [
    Alcotest.test_case "timestamp ordering" `Quick test_timestamp_order;
    Alcotest.test_case "timestamp succ" `Quick test_timestamp_succ;
    Alcotest.test_case "timestamp codec" `Quick test_timestamp_codec;
    QCheck_alcotest.to_alcotest prop_timestamp_codec;
    Alcotest.test_case "datetime format/parse" `Quick test_datetime_format_parse;
    QCheck_alcotest.to_alcotest prop_datetime_roundtrip;
    Alcotest.test_case "tid encoding" `Quick test_tid_encoding;
    Alcotest.test_case "clock monotonicity" `Quick test_clock_monotonic;
    Alcotest.test_case "clock quantum" `Quick test_clock_quantum;
    Alcotest.test_case "wall clock" `Quick test_wall_clock;
  ]
