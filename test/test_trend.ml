(* Tests for coverage trends and drift detection. *)

module T = Prima_core.Trend
module P = Prima_core.Policy
module C = Prima_core.Coverage
module S = Workload.Scenario

let vocab = S.vocab ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_windows_partition_entries () =
  let p_al = S.table1_audit_policy () in
  let points = T.compute vocab ~p_ps:(S.policy_store ()) ~p_al ~window:5 () in
  check_int "two windows over t1..t10" 2 (List.length points);
  check_int "first window entries" 5 (List.hd points).T.entries;
  check_int "second window entries" 5 (List.nth points 1).T.entries;
  check_int "starts at t1" 1 (List.hd points).T.window_start;
  check_int "second starts at t6" 6 (List.nth points 1).T.window_start

let test_window_coverage_values () =
  (* t1-t5: t1,t2,t5 covered -> 3/5; t6-t10: none covered -> 0/5. *)
  let p_al = S.table1_audit_policy () in
  let points = T.compute vocab ~p_ps:(S.policy_store ()) ~p_al ~window:5 () in
  check_float "first window 60%" 0.6 (List.hd points).T.stats.C.coverage;
  check_float "second window 0%" 0.0 (List.nth points 1).T.stats.C.coverage

let test_single_window_matches_global () =
  let p_al = S.table1_audit_policy () in
  let points = T.compute vocab ~p_ps:(S.policy_store ()) ~p_al ~window:1000 () in
  check_int "one window" 1 (List.length points);
  check_float "30% overall" 0.3 (List.hd points).T.stats.C.coverage

let test_empty_and_untimed () =
  check_int "empty" 0
    (List.length
       (T.compute vocab ~p_ps:(S.policy_store ()) ~p_al:(P.make []) ~window:5 ()));
  let untimed = P.of_assoc_list [ [ ("data", "gender") ] ] in
  check_int "untimed rules ignored" 0
    (List.length (T.compute vocab ~p_ps:(S.policy_store ()) ~p_al:untimed ~window:5 ()))

let test_window_validation () =
  Alcotest.check_raises "bad window" (Invalid_argument "Trend.compute: window must be positive")
    (fun () ->
      ignore
        (T.compute vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ())
           ~window:0 ()))

let test_drift_detection () =
  let p_al = S.table1_audit_policy () in
  let points = T.compute vocab ~p_ps:(S.policy_store ()) ~p_al ~window:5 () in
  (* 60% then 0%: clearly drifting. *)
  check_bool "drifting" true (T.drifting points);
  check_bool "tolerant enough" false (T.drifting ~tolerance:0.7 points);
  check_bool "empty not drifting" false (T.drifting [])

let test_drift_resolved_after_refinement () =
  let p_al = S.table1_audit_policy () in
  let report =
    Prima_core.Refinement.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al ()
  in
  let points =
    T.compute vocab ~p_ps:report.Prima_core.Refinement.p_ps' ~p_al ~window:5 ()
  in
  (* After adoption, t6-t10 is 4/5 covered: drift within tolerance 0.3. *)
  check_bool "no more drift" false (T.drifting ~tolerance:0.3 points)

(* End-to-end drift story: practice changes mid-stream (a new informal
   practice appears), the trend over the old store shows drift, refinement
   over the late window documents it, and the drift clears. *)
let test_drift_appears_and_is_refined_away () =
  let config =
    { (Workload.Hospital.default_config ()) with
      Workload.Hospital.total_accesses = 600;
      informal_rate = 0.0;
      violation_rate = 0.0;
      btg_on_covered = 0.0;
    }
  in
  let hospital_vocab = config.Workload.Hospital.vocab in
  let covered_trail = Workload.Generator.entries (Workload.Generator.generate config) in
  (* From t601 a new ward habit appears: nurses BTG-ing referrals for
     scheduling. *)
  let new_practice =
    List.init 120 (fun i ->
        Hdb.Audit_schema.entry ~time:(601 + i) ~op:Hdb.Audit_schema.Allow
          ~user:(Printf.sprintf "nurse-%02d" ((i mod 4) + 1))
          ~data:"referral" ~purpose:"scheduling" ~authorized:"nurse"
          ~status:Hdb.Audit_schema.Exception_based)
  in
  let p_al = Audit_mgmt.To_policy.policy_of_entries (covered_trail @ new_practice) in
  let p_ps = Workload.Hospital.policy_store config in
  let before = T.compute hospital_vocab ~p_ps ~p_al ~window:300 () in
  check_bool "drift detected" true (T.drifting before);
  let report = Prima_core.Refinement.run_epoch ~vocab:hospital_vocab ~p_ps ~p_al () in
  check_bool "practice adopted" true
    (List.exists
       (fun r -> Prima_core.Rule.find_attr r "purpose" = Some "scheduling")
       report.Prima_core.Refinement.accepted);
  let after =
    T.compute hospital_vocab ~p_ps:report.Prima_core.Refinement.p_ps' ~p_al ~window:300 ()
  in
  check_bool "drift resolved" false (T.drifting after)

(* A trail with a gap: Table 1's ten accesses at t1-t10 and again at
   t51-t60.  The four windows between them hold no entry, so they report
   nothing: no 0/0 read as 100%, and no drift between two equal
   windows. *)
let test_gap_reports_no_empty_window () =
  let entries = S.table1_entries () in
  let again =
    List.map (fun (e : Hdb.Audit_schema.entry) -> { e with time = e.time + 50 }) entries
  in
  let p_al = Audit_mgmt.To_policy.policy_of_entries (entries @ again) in
  let points = T.compute vocab ~p_ps:(S.policy_store ()) ~p_al ~window:10 () in
  check_int "only the windows holding entries" 2 (List.length points);
  check_int "the second window starts at t51" 51 (List.nth points 1).T.window_start;
  check_int "each holds ten" 10 (List.nth points 1).T.entries;
  check_float "the second reads the first's 30%" (List.hd points).T.stats.C.coverage
    (List.nth points 1).T.stats.C.coverage;
  check_bool "not drifting" false (T.drifting points)

let test_system_trend () =
  let system =
    Prima_system.System.create ~vocab ~p_ps:(S.policy_store ()) ()
  in
  let site = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.ingest_entries site (S.table1_entries ());
  Prima_system.System.add_site system site;
  let points = Prima_system.System.trend system ~window:5 in
  check_int "two windows" 2 (List.length points)

let () =
  Alcotest.run "trend"
    [ ( "trend",
        [ Alcotest.test_case "windows partition" `Quick test_windows_partition_entries;
          Alcotest.test_case "window coverage" `Quick test_window_coverage_values;
          Alcotest.test_case "single window = global" `Quick test_single_window_matches_global;
          Alcotest.test_case "empty/untimed" `Quick test_empty_and_untimed;
          Alcotest.test_case "validation" `Quick test_window_validation;
          Alcotest.test_case "drift detection" `Quick test_drift_detection;
          Alcotest.test_case "drift resolved by refinement" `Quick
            test_drift_resolved_after_refinement;
          Alcotest.test_case "drift appears and is refined away" `Quick
            test_drift_appears_and_is_refined_away;
          Alcotest.test_case "a gap reports no empty window" `Quick
            test_gap_reports_no_empty_window;
          Alcotest.test_case "system trend" `Quick test_system_trend;
        ] );
    ]
