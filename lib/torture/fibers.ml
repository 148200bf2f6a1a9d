(* Seeded fibers (see the interface).  A parked fiber is runnable once
   its predicate holds or the virtual clock has reached its deadline; the
   clock stands still while anyone can run, so lock timeouts fire exactly
   when every session waits.  A body that raises ends the run, and the
   others are abandoned where they stand, never resumed: power loss, as
   far as the sessions can tell. *)

open Effect
open Effect.Deep
module Park = Imdb_util.Park

type _ Effect.t += Block : (unit -> bool) * int option -> unit Effect.t

type fiber =
  | Fresh
  | Parked of (unit -> bool) * int option * (unit, unit) continuation
  | Done

let running : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let yield () = if Domain.DLS.get running then perform (Block ((fun () -> true), None))

let run ?(at_yield = ignore) ~rng bodies =
  let n = Array.length bodies in
  let state = Array.make n Fresh in
  let now = ref 0 and cur = ref 0 in
  let handler =
    {
      retc = (fun () -> state.(!cur) <- Done);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Block (ready, deadline) ->
              Some (fun (k : (a, unit) continuation) -> state.(!cur) <- Parked (ready, deadline, k))
          | _ -> None);
    }
  in
  let runnable i =
    match state.(i) with
    | Fresh -> true
    | Done -> false
    | Parked (ready, deadline, _) ->
        ready () || match deadline with Some d -> !now >= d | None -> false
  in
  let rec loop () =
    at_yield ();
    match List.filter runnable (List.init n Fun.id) with
    | [] ->
        let earliest =
          Array.fold_left
            (fun acc -> function Parked (_, Some d, _) -> min acc d | _ -> acc)
            max_int state
        in
        if earliest < max_int then begin
          now := earliest;
          loop ()
        end
        else if Array.exists (function Done -> false | _ -> true) state then
          failwith "Fibers.run: every session is parked with no deadline"
    | live ->
        cur := List.nth live (Imdb_util.Rng.int rng (List.length live));
        (match state.(!cur) with
        | Fresh -> match_with bodies.(!cur) () handler
        | Parked (_, _, k) -> continue k ()
        | Done -> ());
        loop ()
  in
  let block ~deadline_us ready = perform (Block (ready, deadline_us)) in
  Park.install (Some { Park.self = (fun () -> -(!cur + 1)); now_us = (fun () -> !now); block });
  Domain.DLS.set running true;
  Fun.protect ~finally:(fun () -> Park.install None; Domain.DLS.set running false) loop
