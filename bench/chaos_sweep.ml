(* Long-running chaos sweep (`make chaos`).

   Bigger than the regression suite baked into dune runtest: by default 20
   seeds x 400-step composed fault schedules, each checked against the
   model oracle's ten invariants.  Any violation prints the full fault
   log and the violation trace, and reproduces from its seed alone:

     dune exec bench/chaos_sweep.exe               -- default sweep
     dune exec bench/chaos_sweep.exe -- 8 1000     -- 8 seeds x 1000 steps *)

let () =
  let seeds, steps =
    match Sys.argv with
    | [| _; s; n |] -> (int_of_string s, int_of_string n)
    | [| _; s |] -> (int_of_string s, 400)
    | _ -> (20, 400)
  in
  Fmt.pr "chaos sweep: %d seeds x %d-step schedules@." seeds steps;
  let failed = ref false in
  for seed = 1 to seeds do
    let report = Chaos.Harness.run ~seed ~steps () in
    Fmt.pr "%a@." Chaos.Harness.pp report;
    if not (Chaos.Harness.passed report) then begin
      failed := true;
      Fmt.pr "@.--- fault log (seed %d) ---@." seed;
      List.iter (Fmt.pr "%s@.") report.Chaos.Harness.events
    end
  done;
  if !failed then begin
    Fmt.pr "@.CHAOS SWEEP FOUND VIOLATIONS.@.";
    exit 1
  end
  else Fmt.pr "@.All seeds clean: ten invariants held on every schedule.@."
