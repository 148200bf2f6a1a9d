(* Transaction timestamps.

   Following the paper (Section 2.1), a timestamp is the concatenation of
   an 8-byte clock time [ttime] with 20 ms resolution and a 4-byte sequence
   number [sn] that distinguishes up to 2^32 transactions within one 20 ms
   quantum.  [ttime] is milliseconds since the Unix epoch, always a
   multiple of [quantum_ms].  Ordering is lexicographic on (ttime, sn) and
   agrees with transaction serialization order because timestamps are
   issued at commit by a monotonic clock. *)

type t = { ttime : int64; sn : int }

let quantum_ms = 20L
let on_disk_size = 12 (* 8-byte ttime + 4-byte sn *)

let make ~ttime ~sn =
  if sn < 0 || sn > 0xFFFFFFFF then invalid_arg "Timestamp.make: sn out of range";
  if Int64.compare ttime 0L < 0 then invalid_arg "Timestamp.make: negative ttime";
  { ttime; sn }

let ttime t = t.ttime
let sn t = t.sn

let zero = { ttime = 0L; sn = 0 }

(* End time of the current version of a record: "still alive". *)
let infinity = { ttime = Int64.max_int; sn = 0xFFFFFFFF }

let compare a b =
  match Int64.compare a.ttime b.ttime with 0 -> Int.compare a.sn b.sn | c -> c

let equal a b = compare a b = 0

(* Local opens of [Infix] give readable comparisons without shadowing the
   integer operators in this module. *)
module Infix = struct
  let ( <= ) a b = compare a b <= 0
  let ( < ) a b = compare a b < 0
  let ( >= ) a b = compare a b >= 0
  let ( > ) a b = compare a b > 0
  let ( = ) a b = compare a b = 0
end

let succ t =
  if t.sn < 0xFFFFFFFF then { t with sn = t.sn + 1 }
  else { ttime = Int64.add t.ttime quantum_ms; sn = 0 }

let quantize ms = Int64.mul (Int64.div ms quantum_ms) quantum_ms

let write b pos t =
  Imdb_util.Codec.set_i64 b pos t.ttime;
  Imdb_util.Codec.set_u32 b (pos + 8) t.sn

let read b pos =
  let ttime = Imdb_util.Codec.get_i64 b pos in
  let sn = Imdb_util.Codec.get_u32 b (pos + 8) in
  { ttime; sn }

(* --- Civil-time formatting ------------------------------------------- *)

(* Days-from-civil / civil-from-days (Howard Hinnant's algorithms); we
   avoid Unix.gmtime so that formatting works identically on all
   platforms and needs no C bindings. *)

let days_from_civil ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

(* Milliseconds since epoch for a civil datetime (UTC). *)
let ms_of_datetime ~y ~mo ~d ~h ~mi ~s ~ms =
  let days = days_from_civil ~y ~m:mo ~d in
  Int64.add
    (Int64.mul (Int64.of_int days) 86_400_000L)
    (Int64.of_int ((((h * 60) + mi) * 60 + s) * 1000 + ms))

let datetime_of_ms ms =
  let day_ms = 86_400_000L in
  let days = Int64.to_int (Int64.div ms day_ms) in
  let rem = Int64.to_int (Int64.rem ms day_ms) in
  let days, rem = if rem < 0 then (days - 1, rem + 86_400_000) else (days, rem) in
  let y, mo, d = civil_from_days days in
  let msec = rem mod 1000 in
  let rem = rem / 1000 in
  let s = rem mod 60 in
  let rem = rem / 60 in
  let mi = rem mod 60 in
  let h = rem / 60 in
  (y, mo, d, h, mi, s, msec)

let pp ppf t =
  let y, mo, d, h, mi, s, ms = datetime_of_ms t.ttime in
  Fmt.pf ppf "%04d-%02d-%02d %02d:%02d:%02d.%03d+%d" y mo d h mi s ms t.sn

let to_string t = Fmt.str "%a" pp t

(* Parse "YYYY-MM-DD HH:MM:SS[.mmm][+sn]" (the AS OF clause syntax) or a
   bare "YYYY-MM-DD".  Raises [Failure] on malformed input. *)
let of_string str =
  let fail () = failwith (Printf.sprintf "Timestamp.of_string: cannot parse %S" str) in
  let str = String.trim str in
  let date, time =
    match String.index_opt str ' ' with
    | Some i ->
        ( String.sub str 0 i,
          String.sub str (i + 1) (String.length str - i - 1) )
    | None -> (str, "00:00:00")
  in
  let y, mo, d =
    match String.split_on_char '-' date with
    | [ y; mo; d ] -> (
        try (int_of_string y, int_of_string mo, int_of_string d)
        with _ -> fail ())
    | _ -> fail ()
  in
  let time, sn =
    match String.index_opt time '+' with
    | Some i ->
        ( String.sub time 0 i,
          (try int_of_string (String.sub time (i + 1) (String.length time - i - 1))
           with _ -> fail ()) )
    | None -> (time, 0)
  in
  let time, ms =
    match String.index_opt time '.' with
    | Some i ->
        let frac = String.sub time (i + 1) (String.length time - i - 1) in
        let frac = if String.length frac > 3 then String.sub frac 0 3 else frac in
        let scale = match String.length frac with 1 -> 100 | 2 -> 10 | _ -> 1 in
        ( String.sub time 0 i,
          (try int_of_string frac * scale with _ -> fail ()) )
    | None -> (time, 0)
  in
  let h, mi, s =
    match String.split_on_char ':' time with
    | [ h; mi; s ] -> (
        try (int_of_string h, int_of_string mi, int_of_string s)
        with _ -> fail ())
    | [ h; mi ] -> (
        try (int_of_string h, int_of_string mi, 0) with _ -> fail ())
    | _ -> fail ()
  in
  if mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 || s > 60 then fail ();
  { ttime = ms_of_datetime ~y ~mo ~d ~h ~mi ~s ~ms; sn }
