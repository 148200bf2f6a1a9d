(* The linearized oracle: committed history as data.

   Commits live in a growable array ordered by timestamp, which is the
   serialization order.  Only acknowledged (durable) commits are
   recorded, so the array only ever grows.  The per-table current state
   is maintained incrementally for the generator's benefit. *)

module Ts = Imdb_clock.Timestamp

type write = { w_table : string; w_key : string; w_value : string option }
type commit = { c_ts : Ts.t; c_writes : write list; c_tag : int }

type t = {
  mutable arr : commit array;
  mutable len : int;
  current : (string, (string, string) Hashtbl.t) Hashtbl.t;
      (* table -> live key -> latest value *)
}

let create ~tables =
  let current = Hashtbl.create 4 in
  List.iter (fun name -> Hashtbl.replace current name (Hashtbl.create 64)) tables;
  { arr = Array.make 1024 { c_ts = Ts.zero; c_writes = []; c_tag = 0 };
    len = 0; current }

let table_state t name =
  match Hashtbl.find_opt t.current name with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Torture model: unknown table %s" name)

let set h w =
  match w.w_value with Some v -> Hashtbl.replace h w.w_key v | None -> Hashtbl.remove h w.w_key

let apply_write t w = set (table_state t w.w_table) w

let record t ~ts ~tag writes =
  if t.len > 0 && Ts.compare ts t.arr.(t.len - 1).c_ts <= 0 then
    invalid_arg
      (Printf.sprintf "Torture model: commit timestamp %s does not advance past %s"
         (Ts.to_string ts)
         (Ts.to_string t.arr.(t.len - 1).c_ts));
  if t.len = Array.length t.arr then begin
    let bigger = Array.make (2 * t.len) t.arr.(0) in
    Array.blit t.arr 0 bigger 0 t.len;
    t.arr <- bigger
  end;
  t.arr.(t.len) <- { c_ts = ts; c_writes = writes; c_tag = tag };
  t.len <- t.len + 1;
  List.iter (apply_write t) writes

let commit_count t = t.len
let commits t = Array.to_list (Array.sub t.arr 0 t.len)

let sorted_bindings h =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let current_state t ~table = sorted_bindings (table_state t table)
let mem t ~table ~key = Hashtbl.mem (table_state t table) key
let value_of t ~table ~key = Hashtbl.find_opt (table_state t table) key

(* Replay [table]'s writes commit by commit, oldest first, while [go]
   holds of the next commit; [after] sees the state each one leaves. *)
let replay t ~table ~go ~after =
  let state = Hashtbl.create 64 in
  let rec loop i =
    if i < t.len && go t.arr.(i) then begin
      List.iter (fun w -> if w.w_table = table then set state w) t.arr.(i).c_writes;
      after t.arr.(i) state;
      loop (i + 1)
    end
  in
  loop 0;
  state

let iter_states t ~table ~f =
  ignore
    (replay t ~table ~go:(fun _ -> true) ~after:(fun c state ->
         f ~ts:c.c_ts ~tag:c.c_tag ~state:(sorted_bindings state)))

let state_at t ~table ts =
  sorted_bindings
    (replay t ~table ~go:(fun c -> Ts.compare c.c_ts ts <= 0) ~after:(fun _ _ -> ()))

let histories t ~table =
  let out : (string, (Ts.t * string option) list) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to t.len - 1 do
    let c = t.arr.(i) in
    List.iter
      (fun w ->
        if w.w_table = table then
          let prev = Option.value (Hashtbl.find_opt out w.w_key) ~default:[] in
          (* prepend: histories come out newest first, like [Db.history] *)
          Hashtbl.replace out w.w_key ((c.c_ts, w.w_value) :: prev))
      c.c_writes
  done;
  out
