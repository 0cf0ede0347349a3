(* Integration tests: the assembled PRIMA system of Figure 4 — enforcement
   generating real audit entries, federation consolidating them, refinement
   adopting patterns, and the closed loop converting exception-based access
   into regular access. *)

module Sys_ = Prima_system.System

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vocab () = Vocabulary.Samples.figure1 ()

let setup_clinical control =
  List.iter
    (fun sql -> ignore (Hdb.Control_center.admin_exec control sql))
    [ "CREATE TABLE records (patient TEXT, referral TEXT, prescription TEXT, address TEXT)";
      "INSERT INTO records VALUES ('p1', 'r1', 'rx1', 'a1'), ('p2', 'r2', 'rx2', 'a2')";
    ];
  Hdb.Control_center.set_patient_column control ~table:"records" ~column:"patient";
  Hdb.Control_center.map_column control ~table:"records" ~column:"referral"
    ~category:"referral";
  Hdb.Control_center.map_column control ~table:"records" ~column:"prescription"
    ~category:"prescription";
  Hdb.Control_center.map_column control ~table:"records" ~column:"address"
    ~category:"address"

let make_system () =
  let system =
    Sys_.create ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  setup_clinical (Sys_.control system);
  system

let test_system_seeds_enforcement_from_store () =
  let system = make_system () in
  let rules = Hdb.Control_center.rules (Sys_.control system) in
  check_int "three seeded rules" 3 (Hdb.Privacy_rules.count rules);
  check_bool "nurse referral treatment permitted" true
    (Hdb.Privacy_rules.permits rules ~data:"referral" ~purpose:"treatment" ~authorized:"nurse")

let query ?break_glass system ~user ~role ~purpose sql =
  Hdb.Control_center.query ?break_glass (Sys_.control system) ~user ~role ~purpose sql

let btg_registration system user =
  match
    query ~break_glass:true system ~user ~role:"nurse" ~purpose:"registration"
      "SELECT referral FROM records"
  with
  | Ok outcome -> check_bool "was break-glass" true outcome.Hdb.Enforcement.break_glass
  | Error e -> Alcotest.failf "btg failed: %s" (Hdb.Enforcement.error_to_string e)

let test_closed_loop_exception_becomes_regular () =
  let system = make_system () in
  (* Nurses repeatedly need referral data for registration: denied by the
     seeded policy, so they break the glass.  5+ times, several users. *)
  List.iter (btg_registration system) [ "mark"; "tim"; "bob"; "mark"; "olga"; "mark" ];
  let before = Sys_.coverage system in
  check_bool "coverage below 1" true
    (before.Prima_core.Prima.bag_semantics.Prima_core.Coverage.coverage < 1.0);
  (match Sys_.refine system with
  | Ok report ->
    check_int "pattern adopted" 1 (List.length report.Prima_core.Refinement.accepted)
  | Error e -> Alcotest.fail e);
  (* The same access is now regular: no break-glass needed. *)
  (match
     query system ~user:"mark" ~role:"nurse" ~purpose:"registration"
       "SELECT referral FROM records"
   with
  | Ok outcome ->
    check_bool "regular now" false outcome.Hdb.Enforcement.break_glass;
    check_bool "nothing masked" true (outcome.Hdb.Enforcement.masked_columns = [])
  | Error e -> Alcotest.failf "still denied: %s" (Hdb.Enforcement.error_to_string e));
  let after = Sys_.coverage system in
  check_bool "coverage improved" true
    (after.Prima_core.Prima.bag_semantics.Prima_core.Coverage.coverage
    > before.Prima_core.Prima.bag_semantics.Prima_core.Coverage.coverage)

let test_refinement_ignores_rare_exceptions () =
  let system = make_system () in
  (* Below the f = 5 threshold: nothing should be adopted. *)
  List.iter (btg_registration system) [ "mark"; "tim" ];
  match Sys_.refine system with
  | Ok report -> check_int "no adoption" 0 (List.length report.Prima_core.Refinement.accepted)
  | Error e -> Alcotest.fail e

let test_refinement_single_user_not_adopted () =
  let system = make_system () in
  (* One user spamming BTG: COUNT(DISTINCT user) > 1 must reject it. *)
  List.iter (btg_registration system) [ "mark"; "mark"; "mark"; "mark"; "mark"; "mark" ];
  match Sys_.refine system with
  | Ok report -> check_int "no adoption" 0 (List.length report.Prima_core.Refinement.accepted)
  | Error e -> Alcotest.fail e

let test_extra_site_feeds_refinement () =
  let system = make_system () in
  let icu = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.ingest_entries icu (Workload.Scenario.table1_entries ());
  Sys_.add_site system icu;
  match Sys_.refine system with
  | Ok report ->
    check_bool "pattern from remote site" true
      (List.exists
         (Prima_core.Rule.equal_syntactic (Workload.Scenario.expected_pattern ()))
         report.Prima_core.Refinement.accepted)
  | Error e -> Alcotest.fail e

let test_training_minimum_blocks () =
  let system =
    Sys_.create ~training_minimum:100 ~vocab:(vocab ())
      ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  setup_clinical (Sys_.control system);
  btg_registration system "mark";
  match Sys_.refine system with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "training period not enforced"

(* Degraded-mode gating: a system whose federation consolidates a partial
   window must refuse to auto-accept patterns until completeness recovers
   above the threshold. *)
let test_completeness_threshold_blocks_auto_acceptance () =
  let system =
    Sys_.create ~completeness_threshold:0.9 ~vocab:(vocab ())
      ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  let icu = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.ingest_entries icu (Workload.Scenario.table1_entries ());
  let fault = Audit_mgmt.Fault.wrap ~seed:5 icu in
  Audit_mgmt.Fault.take_down fault;
  Audit_mgmt.Federation.add_faulty_site (Sys_.federation system) fault;
  (* The only populated site is unreachable: completeness 0, refine blocked. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match Sys_.refine system with
  | Error e -> check_bool "error names completeness" true (contains e "completeness")
  | Ok _ -> Alcotest.fail "refine must refuse a degraded window");
  check_bool "completeness recorded" true
    (match Sys_.last_health system with
    | Some h -> h.Audit_mgmt.Health.completeness < 0.9
    | None -> false);
  (* Coverage is still measurable, but only as a lower bound. *)
  let q = Sys_.coverage_qualified system in
  check_bool "lower bound label" true
    (match q.Sys_.bag_semantics.Prima_core.Coverage.qualifier with
    | Prima_core.Coverage.Lower_bound e -> e.Prima_core.Coverage.completeness < 0.9
    | Prima_core.Coverage.Exact -> false);
  (* Recovery: heal the site; refine runs and adopts the pattern, exact. *)
  Audit_mgmt.Federation.heal_all (Sys_.federation system);
  match Sys_.refine system with
  | Ok report ->
    check_int "pattern adopted after recovery" 1
      (List.length report.Prima_core.Refinement.accepted);
    check_bool "exact qualifier" true
      (report.Prima_core.Refinement.qualifier = Prima_core.Coverage.Exact)
  | Error e -> Alcotest.fail e

(* Lowering the threshold deliberately lets a degraded refine run, and its
   report is labelled with the window's completeness. *)
let test_lowered_threshold_labels_lower_bound () =
  let system =
    Sys_.create ~completeness_threshold:0.0 ~vocab:(vocab ())
      ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  let icu = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.ingest_entries icu (Workload.Scenario.table1_entries ());
  Sys_.add_site system icu;
  (* A second site that never answers drags completeness below 1. *)
  let flaky_site = Audit_mgmt.Site.create ~name:"flaky" () in
  Audit_mgmt.Site.ingest_entries flaky_site [ Audit_mgmt.Site.entries icu |> List.hd ];
  let fault = Audit_mgmt.Fault.wrap ~seed:5 flaky_site in
  Audit_mgmt.Fault.take_down fault;
  Audit_mgmt.Federation.add_faulty_site (Sys_.federation system) fault;
  match Sys_.refine system with
  | Ok report ->
    check_bool "report labelled lower bound" true
      (match report.Prima_core.Refinement.qualifier with
      | Prima_core.Coverage.Lower_bound e -> e.Prima_core.Coverage.completeness < 1.0
      | Prima_core.Coverage.Exact -> false)
  | Error e -> Alcotest.fail e

(* End-to-end on the synthetic hospital: oracle-guided refinement adopts
   informal practices and never violations; coverage improves epoch over
   epoch. *)
let test_synthetic_hospital_epochs () =
  let config =
    { (Workload.Hospital.default_config ()) with
      Workload.Hospital.total_accesses = 2000;
      epoch_size = 500;
    }
  in
  let p_ps = Workload.Hospital.policy_store config in
  let trail = Workload.Generator.generate config in
  let batches =
    List.map
      (fun batch ->
        Audit_mgmt.To_policy.policy_of_entries (Workload.Generator.entries batch))
      (Workload.Generator.epochs config trail)
  in
  let oracle = Workload.Generator.oracle config in
  let ref_config =
    { Prima_core.Refinement.default_config with
      Prima_core.Refinement.acceptance = Prima_core.Refinement.Oracle oracle;
    }
  in
  let reports, final =
    Prima_core.Refinement.run_epochs ~config:ref_config ~vocab:config.Workload.Hospital.vocab
      ~p_ps ~batches ()
  in
  check_int "four epochs" 4 (List.length reports);
  (* Every adopted pattern is a genuine informal practice. *)
  List.iter
    (fun r ->
      List.iter
        (fun pattern ->
          check_bool "no violation adopted" true
            (Workload.Hospital.is_informal_pattern config pattern))
        r.Prima_core.Refinement.accepted)
    reports;
  (* Refinement discovered at least half of the informal practices. *)
  let covered = Workload.Generator.practices_covered config final in
  check_bool "recall >= 1/2" true
    (2 * List.length covered >= List.length config.Workload.Hospital.informal);
  (* Coverage on the last batch improved against the refined store. *)
  let last = List.nth reports 3 in
  check_bool "coverage improves within epoch" true
    (last.Prima_core.Refinement.coverage_after.Prima_core.Coverage.coverage
    >= last.Prima_core.Refinement.coverage_before.Prima_core.Coverage.coverage)

(* --- an audit field the wire codec cannot encode ---

   A typed-in purpose longer than the codec's 65,535-byte field limit.
   The query must be refused with a typed error before it runs, nothing
   may be audited, and a System with an archive attached must keep
   consolidating.  Without a WAL the entry used to be stored, and every
   later consolidation raised from the archive's encoder; with one, the
   query raised an untyped [Invalid_argument]. *)

let test_oversized_audit_field ~durable () =
  let storage =
    if durable then
      Some
        { Sys_.audit_log = Durable.Log.create ~seed:61 ();
          quarantine_log = Durable.Log.create ~seed:62 ();
        }
    else None
  in
  let system =
    Sys_.create ?storage ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  setup_clinical (Sys_.control system);
  let archive = Audit_mgmt.Shard_store.create () in
  Sys_.attach_archive system archive;
  List.iter (btg_registration system) [ "mark"; "tim" ];
  ignore (Sys_.coverage_qualified system);
  let store = Hdb.Control_center.audit_store (Sys_.control system) in
  let before = Hdb.Audit_store.length store in
  let purpose = String.make 70_000 'x' in
  (match
     query ~break_glass:true system ~user:"eve" ~role:"nurse" ~purpose
       "SELECT referral FROM records"
   with
  | Error (Hdb.Enforcement.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "a query that cannot be audited disclosed rows"
  | Error e -> Alcotest.failf "wrong error: %s" (Hdb.Enforcement.error_to_string e)
  | exception Invalid_argument m -> Alcotest.failf "untyped exception: %s" m);
  check_int "nothing audited" before (Hdb.Audit_store.length store);
  (* the store refuses such an entry itself, before any state changes *)
  (match
     Hdb.Audit_store.append store
       (Hdb.Audit_schema.entry ~time:99 ~op:Hdb.Audit_schema.Allow ~user:"eve"
          ~data:"referral" ~purpose ~authorized:"nurse"
          ~status:Hdb.Audit_schema.Exception_based)
   with
  | () -> Alcotest.fail "the store accepted an entry its codec cannot encode"
  | exception Invalid_argument _ -> ());
  check_int "store unchanged" before (Hdb.Audit_store.length store);
  (match Sys_.refine system with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "refine failed: %s" e);
  ignore (Sys_.coverage_qualified system);
  check_int "the archive holds every stored entry" before
    (Audit_mgmt.Shard_store.total_records archive)

let () =
  Alcotest.run "system"
    [ ( "prima-system",
        [ Alcotest.test_case "seeds enforcement" `Quick test_system_seeds_enforcement_from_store;
          Alcotest.test_case "closed loop" `Quick test_closed_loop_exception_becomes_regular;
          Alcotest.test_case "rare exceptions ignored" `Quick
            test_refinement_ignores_rare_exceptions;
          Alcotest.test_case "single user not adopted" `Quick
            test_refinement_single_user_not_adopted;
          Alcotest.test_case "extra site" `Quick test_extra_site_feeds_refinement;
          Alcotest.test_case "training minimum" `Quick test_training_minimum_blocks;
        ] );
      ( "degraded-mode",
        [ Alcotest.test_case "completeness threshold blocks auto-acceptance" `Quick
            test_completeness_threshold_blocks_auto_acceptance;
          Alcotest.test_case "lowered threshold labels lower bound" `Quick
            test_lowered_threshold_labels_lower_bound;
        ] );
      ( "oversized-audit-field",
        [ Alcotest.test_case "no storage" `Quick (test_oversized_audit_field ~durable:false);
          Alcotest.test_case "with storage" `Quick (test_oversized_audit_field ~durable:true);
        ] );
      ( "synthetic-hospital",
        [ Alcotest.test_case "oracle-guided epochs" `Slow test_synthetic_hospital_epochs ] );
    ]
