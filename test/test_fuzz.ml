(* The seeded SQL fuzzer as a regression test: three fixed seeds, ≥500
   statements each.  Passing means (a) no statement — however mangled —
   escaped the engine as anything but a typed error or a budget stop, and
   (b) every budgeted run that completed matched the ungoverned run
   bitwise.  Seeds are fixed so a failure reproduces exactly; `make fuzz`
   runs a bigger sweep. *)

module Fuzz = Test_support.Sql_fuzz

let seeds = [ 1; 2; 3 ]

let test_seed seed () =
  let report = Fuzz.run ~queries:500 ~seed () in
  if not (Fuzz.passed report) then
    Alcotest.failf "fuzzer found violations:@.%a" Fuzz.pp report;
  Alcotest.(check bool) "covered at least the requested statements" true
    (report.Fuzz.queries >= 500);
  (* The generator must actually exercise every classification bucket —
     a fuzzer that never hits a budget or a typed error tests nothing. *)
  Alcotest.(check bool) "some statements succeed" true (report.Fuzz.ok > 0);
  Alcotest.(check bool) "some statements fail typed" true (report.Fuzz.typed_errors > 0);
  Alcotest.(check bool) "some budgets fire" true (report.Fuzz.budget_hits > 0);
  Alcotest.(check bool) "some partial runs truncate" true (report.Fuzz.truncated_runs > 0)

(* DML round-trips: every generated INSERT/UPDATE/DELETE runs on a governed
   engine and an ungoverned model engine; outcome classes must agree and the
   full table image must stay bitwise-identical after every statement. *)
let test_dml seed () =
  let report = Fuzz.run_dml ~ops:150 ~seed () in
  if not (Fuzz.passed report) then
    Alcotest.failf "DML fuzzer found violations:@.%a" Fuzz.pp report;
  Alcotest.(check bool) "some writes succeed" true (report.Fuzz.ok > 0);
  Alcotest.(check bool) "some writes fail typed" true (report.Fuzz.typed_errors > 0)

let () =
  Alcotest.run "fuzz"
    [ ( "seeded",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d x 500" seed) `Quick (test_seed seed))
          seeds );
      ( "dml",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d x 150 writes vs model table" seed)
              `Quick (test_dml seed))
          seeds );
    ]
