(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one closed-loop workload (oltp_commit, asof_history or
   sessions_contended) for about S seconds on inputs generated from the
   seed, checks every answer, and prints as its last line
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones.  With --trace 1 they are the
   per-layer ones: device-wrapper and registry counts from an untraced
   half-run, span self times from a traced half-run, and the tracing
   overhead between the two. *)

let workloads =
  [
    ("oltp_commit", Oltp_commit.run);
    ("asof_history", Asof_history.run);
    ("sessions_contended", Sessions_contended.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Stats.selftest ();
  Ctx.note "machine: nproc=%d ocaml=%s" (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let go ~traced seconds =
    let c = Ctx.create ~seed:!seed ~seconds ~traced in
    run c;
    c
  in
  if !trace = 0 then begin
    let c = go ~traced:false (float_of_int !seconds) in
    Ctx.print_result [ c ] (Ctx.end_to_end c)
  end
  else begin
    let half = float_of_int !seconds /. 2. in
    let u = go ~traced:false half in
    let t = go ~traced:true half in
    Ctx.print_result [ u; t ] (Ctx.per_layer ~untraced:u ~traced:t)
  end
