(* Standalone fuzzing sweep over the relational engine (`make fuzz`).

   Bigger than the regression suite baked into dune runtest (3 seeds x
   500 statements): by default 10 seeds x 2000 statements each, all
   checked for the two governor invariants — no untyped exception ever
   escapes the engine, and a budgeted run that completes is bitwise
   identical to the ungoverned run.

     dune exec bench/fuzz.exe               -- default sweep
     dune exec bench/fuzz.exe -- 5 10000    -- 5 seeds x 10000 statements

   Exits non-zero on any violation; the offending SQL is printed by the
   report so the case reproduces from its seed alone. *)

let () =
  let seeds, queries =
    match Sys.argv with
    | [| _; s; q |] -> (int_of_string s, int_of_string q)
    | [| _; s |] -> (int_of_string s, 2000)
    | _ -> (10, 2000)
  in
  Fmt.pr "fuzzing: %d seeds x %d statements@." seeds queries;
  let failed = ref false in
  for seed = 1 to seeds do
    let report = Test_support.Sql_fuzz.run ~queries ~seed () in
    Fmt.pr "%a@." Test_support.Sql_fuzz.pp report;
    if not (Test_support.Sql_fuzz.passed report) then failed := true
  done;
  Fmt.pr "@.DML round-trips vs model table: %d seeds x %d ops@." seeds (queries / 4);
  for seed = 1 to seeds do
    let report = Test_support.Sql_fuzz.run_dml ~ops:(queries / 4) ~seed () in
    Fmt.pr "%a@." Test_support.Sql_fuzz.pp report;
    if not (Test_support.Sql_fuzz.passed report) then begin
      failed := true;
      List.iter
        (fun (f : Test_support.Sql_fuzz.failure) -> Fmt.pr "  %s :: %s@." f.reason f.sql)
        (report.Test_support.Sql_fuzz.untyped @ report.Test_support.Sql_fuzz.mismatches)
    end
  done;
  if !failed then begin
    Fmt.pr "@.FUZZING FOUND VIOLATIONS.@.";
    exit 1
  end
  else Fmt.pr "@.All seeds clean: no untyped exceptions, no governed/ungoverned mismatches.@."
