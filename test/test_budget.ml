(* Edge cases of the per-query resource governor: quotas firing at exact
   boundaries, cancellation mid-operator, partial-mode truncation, and the
   graceful-degradation path up through refinement and the assembled
   system.  The companion QCheck property pins the governor's core
   contract: a budget whose quotas never fire leaves results identical to
   an ungoverned run. *)

module B = Relational.Budget
module E = Relational.Errors
module Eng = Relational.Engine
module DA = Prima_core.Data_analysis
module EP = Prima_core.Extract_patterns
module Ref = Prima_core.Refinement
module S = Workload.Scenario
module Sys_ = Prima_system.System

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* 30 rows, three groups — enough work that a GROUP BY accumulates a
   meaningful tick count. *)
let make_engine () =
  let engine = Eng.create () in
  ignore (Eng.command engine "CREATE TABLE t (id INT, grp TEXT, score INT)");
  for i = 0 to 29 do
    ignore
      (Eng.command engine
         (Printf.sprintf "INSERT INTO t VALUES (%d, '%c', %d)" i
            (Char.chr (Char.code 'a' + (i mod 3)))
            (i * 7 mod 13)))
  done;
  engine

let group_query = "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp"

let result_csv engine budget sql = Eng.result_to_csv (Eng.query ?budget engine sql)

(* --- quotas at their edges --- *)

let test_zero_row_quota () =
  let engine = make_engine () in
  (match Eng.query ~budget:(B.create (B.limits ~rows:0 ())) engine "SELECT id FROM t" with
  | exception E.Budget_exceeded (E.Rows, _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (E.to_string e)
  | _ -> Alcotest.fail "a zero-row quota must fire in strict mode");
  (* Partial mode: same quota, empty (but well-formed) result instead. *)
  let budget = B.create ~mode:B.Partial (B.limits ~rows:0 ()) in
  let result = Eng.query ~budget engine "SELECT id FROM t" in
  check_int "partial yields no rows" 0 (List.length result.Relational.Executor.rows);
  check_bool "flagged truncated" true (B.truncated budget);
  check_bool "row quota is the one that fired" true (B.exhausted budget = Some E.Rows)

let test_deadline_exact_boundary () =
  let engine = make_engine () in
  (* Measure the exact tick cost of an ungoverned run... *)
  let ungoverned = B.default () in
  let expected = result_csv engine (Some ungoverned) group_query in
  let cost = (B.stats ungoverned).E.ticks in
  check_bool "the query does real work" true (cost > 30);
  (* ...then a deadline of exactly that many ticks completes (the deadline
     fires strictly after it passes)... *)
  let at = B.create (B.limits ~ticks:cost ()) in
  Alcotest.(check string) "deadline at exact cost completes" expected
    (result_csv engine (Some at) group_query);
  check_int "and consumes exactly the measured ticks" cost (B.stats at).E.ticks;
  (* ...while one tick less fails. *)
  match result_csv engine (Some (B.create (B.limits ~ticks:(cost - 1) ()))) group_query with
  | exception E.Budget_exceeded (E.Time, stats) ->
    check_int "counters at the boundary" cost stats.E.ticks
  | exception e -> Alcotest.failf "wrong exception: %s" (E.to_string e)
  | _ -> Alcotest.fail "one tick under the cost must exceed the deadline"

let test_tuple_quota_partial_prefix () =
  let engine = make_engine () in
  (* A tight tuple quota in partial mode: the aggregate sees a prefix of
     the scan, so every group count is a lower bound of the true count. *)
  let true_counts =
    (Eng.query engine group_query).Relational.Executor.rows
    |> List.map (fun row -> Relational.Row.to_list row)
  in
  let budget = B.create ~mode:B.Partial (B.limits ~tuples:10 ()) in
  let partial = (Eng.query ~budget engine group_query).Relational.Executor.rows in
  check_bool "flagged truncated" true (B.truncated budget);
  check_bool "partial counts bound the true counts" true
    (List.for_all
       (fun row ->
         match Relational.Row.to_list row with
         | [ grp; Relational.Value.Int n ] ->
           List.exists
             (function
               | [ grp'; Relational.Value.Int n' ] -> grp = grp' && n <= n'
               | _ -> false)
             true_counts
         | _ -> false)
       partial)

(* --- cancellation --- *)

let test_cancel_during_aggregate () =
  let engine = make_engine () in
  let ungoverned = B.default () in
  ignore (result_csv engine (Some ungoverned) group_query);
  let mid = (B.stats ungoverned).E.ticks / 2 in
  (* Cancel halfway through the hash-aggregate build: strict and partial
     mode must both abort — cancellation is never a degradation. *)
  List.iter
    (fun mode ->
      match Eng.query ~budget:(B.create ~mode ~cancel_at:mid B.unlimited) engine group_query with
      | exception E.Cancelled stats ->
        check_bool "cancelled near the trip point" true (stats.E.ticks >= mid)
      | exception e -> Alcotest.failf "wrong exception: %s" (E.to_string e)
      | _ -> Alcotest.fail "a cancelled query must abort")
    [ B.Strict; B.Partial ];
  (* A query cancelled before it starts aborts at its first tick. *)
  match Eng.query ~budget:(B.create ~cancel_at:0 B.unlimited) engine "SELECT id FROM t" with
  | exception E.Cancelled stats -> check_bool "aborted at the first tick" true (stats.E.ticks = 1)
  | _ -> Alcotest.fail "a query cancelled at tick 0 must abort"

let test_admit_list_strict_is_physical () =
  (* The strict fast path must not rebuild the list it admits. *)
  let budget = B.create B.unlimited in
  let rows = [ 1; 2; 3 ] in
  check_bool "strict admit_list returns the same list" true (B.admit_list budget rows == rows)

(* --- governed == ungoverned when nothing fires (QCheck) --- *)

let queries =
  [ "SELECT id, score FROM t";
    "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp";
    "SELECT DISTINCT score FROM t ORDER BY score DESC";
    "SELECT id FROM t WHERE score > 5 ORDER BY id LIMIT 7";
    "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) >= 2";
  ]

let gen_case =
  let open QCheck2.Gen in
  let* rows = list_size (int_range 0 25) (pair (int_range 0 50) (int_range 0 9)) in
  let* query = int_range 0 (List.length queries - 1) in
  return (rows, query)

let prop_governed_matches_ungoverned =
  QCheck2.Test.make ~name:"non-firing budget leaves results identical" ~count:120
    ~print:(fun (rows, q) -> Printf.sprintf "rows=%d query=%d" (List.length rows) q)
    gen_case
    (fun (rows, query_index) ->
      let engine = Eng.create () in
      ignore (Eng.command engine "CREATE TABLE t (id INT, grp TEXT, score INT)");
      List.iteri
        (fun i (id, score) ->
          ignore
            (Eng.command engine
               (Printf.sprintf "INSERT INTO t VALUES (%d, '%c', %d)" id
                  (Char.chr (Char.code 'a' + (i mod 4)))
                  score)))
        rows;
      let sql = List.nth queries query_index in
      let plain = result_csv engine None sql in
      let generous = B.create (B.limits ~rows:100_000 ~tuples:1_000_000 ~ticks:10_000_000 ()) in
      let governed = result_csv engine (Some generous) sql in
      let partial =
        B.create ~mode:B.Partial (B.limits ~rows:100_000 ~tuples:1_000_000 ~ticks:10_000_000 ())
      in
      let soft = result_csv engine (Some partial) sql in
      plain = governed && plain = soft && (not (B.truncated partial)))

(* --- graceful degradation through Algorithm 5 --- *)

let practice () = Prima_core.Filter.run (S.table1_audit_policy ())

let test_degraded_extraction_is_lower_bound () =
  let exact = DA.analyse (practice ()) in
  check_bool "scenario yields a pattern" true (List.length exact > 0);
  (* Generous budget: same patterns, not degraded, stats populated. *)
  let ok = DA.analyse_governed ~limits:(B.limits ~ticks:1_000_000 ()) (practice ()) in
  check_bool "not degraded" false ok.DA.degraded;
  check_bool "patterns identical" true (ok.DA.patterns = exact);
  check_bool "stats populated" true (ok.DA.stats.E.ticks > 0);
  (* Starved budget: the strict attempt fires, the partial retry returns a
     subset of the exact patterns, flagged degraded. *)
  let starved = DA.analyse_governed ~limits:(B.limits ~tuples:3 ()) (practice ()) in
  check_bool "degraded" true starved.DA.degraded;
  check_bool "patterns are a subset of the exact set" true
    (List.for_all (fun rule -> List.mem rule exact) starved.DA.patterns)

let test_extract_patterns_governed_mining_exact () =
  (* The mining backend is ungoverned: always exact, zero stats. *)
  let governed =
    EP.run_governed ~backend:(EP.Mining EP.default_mining) ~limits:(B.limits ~tuples:1 ())
      (practice ())
  in
  check_bool "mining never degrades" false governed.DA.degraded;
  check_int "mining reports zero ticks" 0 governed.DA.stats.E.ticks

let test_epoch_degrades_to_lower_bound () =
  let vocab = S.vocab () in
  let report =
    Ref.run_epoch ~limits:(B.limits ~tuples:3 ()) ~vocab ~p_ps:(S.policy_store ())
      ~p_al:(S.table1_audit_policy ()) ()
  in
  check_bool "budget stats recorded" true (report.Ref.budget_stats.E.ticks > 0);
  (match report.Ref.qualifier with
  | Prima_core.Coverage.Lower_bound e ->
    check_bool "the budget is the only reason" true
      (e.Prima_core.Coverage.reasons
      = [ Prima_core.Coverage.Budget_truncated report.Ref.budget_stats ]);
    check_bool "the trail itself was whole" true (e.Prima_core.Coverage.completeness = 1.0)
  | Prima_core.Coverage.Exact ->
    Alcotest.fail "a degraded extraction must downgrade coverage to Lower_bound");
  (* The same epoch under a generous budget is exact. *)
  let report =
    Ref.run_epoch ~limits:(B.limits ~ticks:1_000_000 ()) ~vocab ~p_ps:(S.policy_store ())
      ~p_al:(S.table1_audit_policy ()) ()
  in
  check_bool "exact qualifier" true (report.Ref.qualifier = Prima_core.Coverage.Exact)

(* --- the assembled system tracks governance --- *)

let test_system_governance_counters () =
  let system =
    Sys_.create ~vocab:(Vocabulary.Samples.figure1 ()) ~p_ps:(S.policy_store ()) ()
  in
  let icu = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.ingest_entries icu (S.table1_entries ());
  Sys_.add_site system icu;
  check_bool "ungoverned by default" true (Sys_.query_limits system = None);
  check_int "no governed epochs yet" 0 (Sys_.governance system).Sys_.governed_epochs;
  (* Govern with a budget that will not fire: counted, not degraded. *)
  Sys_.set_query_limits system (Some (B.limits ~ticks:1_000_000 ()));
  (match Sys_.refine system with
  | Ok report -> check_bool "not degraded" true (report.Ref.qualifier = Prima_core.Coverage.Exact)
  | Error e -> Alcotest.fail e);
  let g = Sys_.governance system in
  check_int "one governed epoch" 1 g.Sys_.governed_epochs;
  check_int "none degraded" 0 g.Sys_.degraded_epochs;
  check_bool "stats retained" true
    (match g.Sys_.last_budget_stats with Some s -> s.E.ticks > 0 | None -> false);
  (* Starve the next epoch: the degraded counter moves. *)
  Sys_.set_query_limits system (Some (B.limits ~tuples:3 ()));
  (match Sys_.refine system with
  | Ok report ->
    check_bool "degraded epoch" true
      (match Prima_core.Coverage.reasons report.Ref.qualifier with
      | [ Prima_core.Coverage.Budget_truncated _ ] -> true
      | _ -> false)
  | Error e -> Alcotest.fail e);
  let g = Sys_.governance system in
  check_int "two governed epochs" 2 g.Sys_.governed_epochs;
  check_int "one degraded" 1 g.Sys_.degraded_epochs

(* --- wall-clock deadline, deterministic via an injected clock --- *)

let test_wall_deadline_injected_clock () =
  let engine = make_engine () in
  (* a fake clock that advances 1ms per budget tick: a 5ms wall deadline
     must fire partway through the scan *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 1.0;
    !t
  in
  let tripped =
    try
      ignore (Eng.query ~budget:(B.create ~now (B.limits ~wall_ms:5 ())) engine group_query);
      false
    with E.Budget_exceeded (E.Time, _) -> true
  in
  check_bool "5ms wall deadline trips on a 30-row group-by" true tripped;
  (* a deadline the query finishes under changes nothing *)
  let t2 = ref 0.0 in
  let now2 () =
    t2 := !t2 +. 1.0;
    !t2
  in
  Alcotest.(check string)
    "generous wall deadline is invisible"
    (result_csv engine None group_query)
    (result_csv engine (Some (B.create ~now:now2 (B.limits ~wall_ms:1_000_000 ()))) group_query);
  (* without a wall limit the clock is never consulted *)
  let consulted = ref false in
  let spy () =
    consulted := true;
    0.0
  in
  ignore (Eng.query ~budget:(B.create ~now:spy B.unlimited) engine group_query);
  check_bool "clock not consulted without a wall limit" false !consulted

(* --- budgets on the enforcement path (Control_center.query) --- *)

let make_control () =
  let control = Hdb.Control_center.create ~vocab:(S.vocab ()) () in
  ignore (Hdb.Control_center.admin_exec control "CREATE TABLE visits (id INT, note TEXT)");
  for i = 1 to 20 do
    ignore
      (Hdb.Control_center.admin_exec control
         (Printf.sprintf "INSERT INTO visits VALUES (%d, 'n%d')" i i))
  done;
  control

let enforcement_query control =
  Hdb.Control_center.query control ~user:"u" ~role:"nurse" ~purpose:"treatment"
    "SELECT * FROM visits"

let test_enforcement_over_quota_raises () =
  let control = make_control () in
  (* ungoverned: the full result set comes back *)
  (match enforcement_query control with
  | Ok o -> check_int "ungoverned rows" 20 (List.length o.Hdb.Enforcement.result.Relational.Executor.rows)
  | Error e -> Alcotest.failf "ungoverned query denied: %s" (Hdb.Enforcement.error_to_string e));
  (* over quota: the typed exception, never silent truncation *)
  Hdb.Control_center.set_query_limits control (Some (B.limits ~rows:5 ()));
  (match enforcement_query control with
  | exception E.Budget_exceeded (E.Rows, _) -> ()
  | Ok o ->
    Alcotest.failf "over-quota enforcement query returned %d rows instead of raising"
      (List.length o.Hdb.Enforcement.result.Relational.Executor.rows)
  | Error e -> Alcotest.failf "denied instead of budget trip: %s" (Hdb.Enforcement.error_to_string e));
  (* generous limits: identical rows again *)
  Hdb.Control_center.set_query_limits control (Some (B.limits ~rows:1000 ~ticks:100_000 ()));
  (match enforcement_query control with
  | Ok o -> check_int "governed-but-generous rows" 20 (List.length o.Hdb.Enforcement.result.Relational.Executor.rows)
  | Error e -> Alcotest.failf "generous query denied: %s" (Hdb.Enforcement.error_to_string e));
  (* clearing the limits restores the ungoverned path *)
  Hdb.Control_center.set_query_limits control None;
  check_bool "limits cleared" true (Hdb.Control_center.query_limits control = None)

let test_system_knob_reaches_enforcement () =
  let sys = Sys_.create ~vocab:(S.vocab ()) ~p_ps:(S.policy_store ()) () in
  let control = Sys_.control sys in
  ignore (Hdb.Control_center.admin_exec control "CREATE TABLE k (id INT)");
  for i = 1 to 9 do
    ignore (Hdb.Control_center.admin_exec control (Printf.sprintf "INSERT INTO k VALUES (%d)" i))
  done;
  Sys_.set_query_limits sys (Some (B.limits ~rows:2 ()));
  let tripped =
    try
      ignore
        (Hdb.Control_center.query control ~user:"u" ~role:"nurse" ~purpose:"treatment"
           "SELECT * FROM k");
      false
    with E.Budget_exceeded (E.Rows, _) -> true
  in
  Sys_.set_query_limits sys None;
  check_bool "System.set_query_limits governs the enforcement path" true tripped

let () =
  Alcotest.run "budget"
    [ ( "quotas",
        [ Alcotest.test_case "zero-row quota" `Quick test_zero_row_quota;
          Alcotest.test_case "deadline at exact boundary" `Quick test_deadline_exact_boundary;
          Alcotest.test_case "partial tuple quota bounds counts" `Quick
            test_tuple_quota_partial_prefix;
          Alcotest.test_case "admit_list strict is physical" `Quick
            test_admit_list_strict_is_physical;
        ] );
      ( "cancellation",
        [ Alcotest.test_case "mid-aggregate + pre-cancelled" `Quick
            test_cancel_during_aggregate ] );
      ("parity", [ QCheck_alcotest.to_alcotest ~long:false prop_governed_matches_ungoverned ]);
      ( "degradation",
        [ Alcotest.test_case "extraction lower bound" `Quick
            test_degraded_extraction_is_lower_bound;
          Alcotest.test_case "mining backend exact" `Quick
            test_extract_patterns_governed_mining_exact;
          Alcotest.test_case "epoch lower bound" `Quick test_epoch_degrades_to_lower_bound;
        ] );
      ( "system",
        [ Alcotest.test_case "governance counters" `Quick test_system_governance_counters ] );
      ( "wall clock",
        [ Alcotest.test_case "injected clock, deterministic deadline" `Quick
            test_wall_deadline_injected_clock ] );
      ( "enforcement path",
        [ Alcotest.test_case "over quota raises typed, never truncates" `Quick
            test_enforcement_over_quota_raises;
          Alcotest.test_case "system knob reaches enforcement" `Quick
            test_system_knob_reaches_enforcement;
        ] );
    ]
