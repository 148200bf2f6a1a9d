(* The machine's speed, measured by a reference kernel.

   The 2-vCPU machines this benchmark runs on switch between speeds up to
   1.8x apart, for anything from a fraction of a second to minutes, with
   no steal time and with CPU time equal to wall time.  A latency-bound
   ALU loop keeps its speed through the switches; code that works like
   the engine does not.

   The reference kernel builds a string-keyed [Map] of 8000 entries and
   looks up 8000 keys in it: allocation, string compares and pointer
   chasing over about 1 MiB, as in the engine's own paths.  [tick] runs
   one slice of it between the workload's operations once [every_s] has
   passed since the last one, outside every timed interval.  A round's
   [factor] is the nominal slice time over the median slice time of the
   round; multiplying a timing by it gives the timing at the reference
   speed.  Measured over five minutes of alternating slices and
   1000-commit engine loops, in which the engine's speed swung 1.8x,
   engine time over slice time stayed within ±10% in every 12-second
   window. *)

(* One slice on an Intel Xeon at 2.0 GHz (2 vCPUs) in its fast state. *)
let nominal_us = 4500.
let every_s = 0.05

module Keys = Map.Make (String)

let keys = Array.init 20000 (fun i -> Printf.sprintf "key%08d" (i * 7919 mod 1000003))

(* One slice of the kernel; returns its time in µs. *)
let slice () =
  let t0 = Unix.gettimeofday () in
  let m = ref Keys.empty in
  for i = 0 to 7999 do
    m := Keys.add keys.(i * 2) i !m
  done;
  let acc = ref 0 in
  for i = 0 to 7999 do
    match Keys.find_opt keys.(i) !m with Some v -> acc := !acc + v | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  (Unix.gettimeofday () -. t0) *. 1e6

type t = {
  mutable times : float list;  (* slice times since the last [factor] *)
  mutable last : float;  (* end of the last slice *)
}

let create () = { times = []; last = Unix.gettimeofday () }

let run t =
  t.times <- slice () :: t.times;
  t.last <- Unix.gettimeofday ()

let tick t = if Unix.gettimeofday () -. t.last >= every_s then run t

(* The factor for the slices since the last call, and their count; runs
   slices first until at least ten have. *)
let factor t =
  while List.length t.times < 10 do
    run t
  done;
  let n = List.length t.times in
  let f = nominal_us /. Stats.median t.times in
  t.times <- [];
  (f, n)
