(* Shared bench plumbing: timing, table rendering, experiment registry. *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* --- simple aligned table printer ---------------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell -> max (List.nth acc i) (String.length cell))
          row)
      (List.map (fun _ -> 0) header)
      all
  in
  let line c = String.concat "-+-" (List.map (fun w -> String.make w c) widths) in
  Fmt.pr "@.== %s ==@." title;
  let render row =
    String.concat " | "
      (List.mapi
         (fun i cell -> cell ^ String.make (List.nth widths i - String.length cell) ' ')
         row)
  in
  Fmt.pr "%s@." (render header);
  Fmt.pr "%s@." (line '-');
  List.iter (fun row -> Fmt.pr "%s@." (render row)) rows

let ms f = Fmt.str "%.2f" (f *. 1000.0)
let pct a b = if b = 0.0 then "n/a" else Fmt.str "%+.1f%%" ((a -. b) /. b *. 100.0)

(* --- registry -------------------------------------------------------------- *)

type experiment = {
  ex_name : string;
  ex_doc : string;
  ex_run : scale:float -> unit;
}

let registry : experiment list ref = ref []
let register ~name ~doc run = registry := { ex_name = name; ex_doc = doc; ex_run = run } :: !registry
let all () = List.rev !registry

let scaled ~scale n = max 1 (int_of_float (float_of_int n *. scale))

(* --- JSON sink -------------------------------------------------------------

   With `--json DIR`, each experiment that calls [emit_json] drops a
   BENCH_<name>.json into DIR.  Experiments put only deterministic
   quantities there (logical work counters, page/row counts — never wall
   time), so scripts/bench_check.sh can diff them against checked-in
   baselines exactly. *)

let json_dir : string option ref = ref None
let set_json_dir dir = json_dir := Some dir

let json_of_counters counters =
  Imdb_obs.Json.Obj (List.map (fun (k, v) -> (k, Imdb_obs.Json.Int v)) counters)

let emit_json ~name doc =
  match !json_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
      let oc = open_out path in
      output_string oc (Imdb_obs.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "wrote %s@." path
