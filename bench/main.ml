(* Benchmark entry point.

   `dune exec bench/main.exe` runs every experiment at paper scale;
   `dune exec bench/main.exe -- fig5 fig6` runs a subset;
   `dune exec bench/main.exe -- --scale 0.1` shrinks workloads 10x;
   `dune exec bench/main.exe -- --json DIR` also writes BENCH_*.json
   files of the deterministic counters (consumed by scripts/bench_check.sh).

   One experiment regenerates each figure of the paper's evaluation
   (Figs. 1-6) plus the ablations indexed in DESIGN.md (Ext A-F). *)

(* Force linking of the experiment modules (registration side effects). *)
let _modules =
  [ Fig_structs.fig1; Fig5.fig5; Fig6.fig6; Ablations.tsb; Hotpath.run; Micro.run;
    Parscan.run; Compress.run; Obsov.run; Ingest.run; Mtbench.run ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1.0 in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--quick" :: rest ->
        scale := 0.05;
        parse rest
    | "--json" :: dir :: rest ->
        Harness.set_json_dir dir;
        parse rest
    | "--list" :: _ ->
        List.iter
          (fun e -> Fmt.pr "%-12s %s@." e.Harness.ex_name e.Harness.ex_doc)
          (Harness.all ());
        exit 0
    | name :: rest ->
        selected := name :: !selected;
        parse rest
  in
  parse args;
  let experiments =
    match !selected with
    | [] -> Harness.all ()
    | names ->
        List.map
          (fun n ->
            match
              List.find_opt (fun e -> e.Harness.ex_name = n) (Harness.all ())
            with
            | Some e -> e
            | None ->
                Fmt.epr "unknown experiment %s (try --list)@." n;
                exit 1)
          (List.rev names)
  in
  Fmt.pr "Immortal DB benchmark suite (scale %.2f)@." !scale;
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      e.Harness.ex_run ~scale:!scale;
      Fmt.pr "[%s: %.1fs]@." e.Harness.ex_name (Unix.gettimeofday () -. t0))
    experiments
