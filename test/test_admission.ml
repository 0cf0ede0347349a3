(* Multi-tenant admission control: the token-bucket refill boundary, shed
   and brownout semantics, deficit-round-robin fairness, all-or-nothing
   gated ingestion, and the admitted paths through the assembled system.

   The refill boundary is CLOSED, mirroring Retry.deadline_reached's [>=]
   treatment of the retry deadline: a token owed at exactly-now is
   granted at that tick, and a rejection's [retry_after_ms] hint is the
   earliest delay at which the same cost is admitted — retrying exactly
   then must succeed. *)

module Adm = Audit_mgmt.Admission
module Site = Audit_mgmt.Site
module Health = Audit_mgmt.Health
module Budget = Relational.Budget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rows_class ?(weight = 1) ~cap ~rate () =
  Adm.(class_config ~weight ~rows:(quota ~capacity:cap ~refill_per_s:rate ()) ())

let one_tenant ?(cls = "c") config =
  let adm = Adm.create ~now:0 [ (cls, config) ] in
  Adm.assign adm ~tenant:"t" cls;
  (adm, Adm.principal ~tenant:"t" ())

let admit_one adm p ~now = Adm.admit adm ~now ~kind:Adm.Mutation p (Adm.cost ~rows:1 ())

let is_admitted = function Adm.Admitted _ -> true | _ -> false
let is_rejected = function Adm.Rejected _ -> true | _ -> false

let drain_bucket adm p ~now ~cap =
  for _ = 1 to cap do
    match admit_one adm p ~now with
    | Adm.Admitted _ -> ()
    | _ -> Alcotest.fail "bucket drained early"
  done

(* --- the closed refill boundary --- *)

(* refill 1/s from empty: the token owed at exactly t+1000 is granted at
   that tick, not one tick later. *)
let test_refill_exactly_now () =
  let adm, p = one_tenant (rows_class ~cap:10 ~rate:1 ()) in
  drain_bucket adm p ~now:0 ~cap:10;
  check_bool "empty at 0" true (is_rejected (admit_one adm p ~now:0));
  check_bool "999 ms: token still owed" true (is_rejected (admit_one adm p ~now:999));
  check_bool "1000 ms exactly: granted" true (is_admitted (admit_one adm p ~now:1000))

(* Sub-token credit carries exactly: 3 tokens/s means the first token
   lands at ceil(1000/3) = 334 ms, never at 333. *)
let test_refill_carry_boundary () =
  let adm, p = one_tenant (rows_class ~cap:3 ~rate:3 ()) in
  drain_bucket adm p ~now:0 ~cap:3;
  check_bool "333 ms: 999/1000, still short" true (is_rejected (admit_one adm p ~now:333));
  check_bool "334 ms: 1002/1000, granted" true (is_admitted (admit_one adm p ~now:334))

(* The retry hint is honest and tight: a rejection at [now] admits at
   exactly [now + hint] — the closed-boundary contract — and would still
   be short one tick earlier. *)
let test_retry_hint_closed_boundary () =
  let adm, p = one_tenant (rows_class ~cap:7 ~rate:2 ()) in
  drain_bucket adm p ~now:0 ~cap:7;
  match admit_one adm p ~now:100 with
  | Adm.Rejected { Adm.retry_after_ms = Some d; _ } ->
    check_bool "hint positive" true (d >= 1);
    check_bool "one tick early: still shed" true
      (d = 1 || is_rejected (admit_one adm p ~now:(100 + d - 1)));
    check_bool "exactly now + hint: admitted" true
      (is_admitted (admit_one adm p ~now:(100 + d)))
  | _ -> Alcotest.fail "expected a hinted rejection"

(* A zero-capacity class never admits and never promises a retry. *)
let test_zero_capacity_never_admits () =
  let adm, p = one_tenant (rows_class ~cap:0 ~rate:5 ()) in
  List.iter
    (fun now ->
      match admit_one adm p ~now with
      | Adm.Rejected r ->
        check_bool "no retry hint" true (r.Adm.retry_after_ms = None)
      | _ -> Alcotest.fail "zero capacity admitted")
    [ 0; 1000; 1_000_000 ]

(* Capacity without refill: once spent, the class is done for good —
   rejections carry no hint. *)
let test_zero_rate_no_hint () =
  let adm, p = one_tenant (rows_class ~cap:2 ~rate:0 ()) in
  drain_bucket adm p ~now:0 ~cap:2;
  match admit_one adm p ~now:1_000_000 with
  | Adm.Rejected r -> check_bool "never refills, no hint" true (r.Adm.retry_after_ms = None)
  | _ -> Alcotest.fail "expected rejection"

(* set_class clamps the level to the new capacity but keeps counters. *)
let test_set_class_clamps_tokens () =
  let adm, p = one_tenant (rows_class ~cap:10 ~rate:0 ()) in
  check_bool "one strict admit" true (is_admitted (admit_one adm p ~now:0));
  Adm.set_class adm "c" (rows_class ~cap:2 ~rate:0 ());
  (* 9 tokens clamp to 2: exactly two more admits *)
  check_bool "clamped token 1" true (is_admitted (admit_one adm p ~now:0));
  check_bool "clamped token 2" true (is_admitted (admit_one adm p ~now:0));
  check_bool "third shed" true (is_rejected (admit_one adm p ~now:0));
  match Adm.stats_of_class adm "c" with
  | Some s ->
    check_int "counters survived reconfiguration" 3 s.Adm.admitted;
    check_int "shed counted" 1 s.Adm.shed
  | None -> Alcotest.fail "class vanished"

(* --- brownout and shed semantics --- *)

(* A query that covers half the plain cost browns out to a Partial grant;
   a mutation in the same state is shed whole — never browned out. *)
let test_query_brownout_mutation_shed () =
  let adm, p = one_tenant (rows_class ~cap:6 ~rate:0 ()) in
  let cost = Adm.cost ~rows:10 () in
  (match Adm.admit adm ~now:0 ~kind:Adm.Mutation p cost with
  | Adm.Rejected _ -> ()
  | _ -> Alcotest.fail "mutation must shed, not brown out");
  match Adm.admit adm ~now:0 ~kind:Adm.Query p cost with
  | Adm.Brownout g ->
    check_bool "partial mode" true (g.Adm.g_mode = Budget.Partial);
    check_bool "granted rows capped at the bucket" true
      (g.Adm.g_limits.Budget.max_rows = Some 6)
  | _ -> Alcotest.fail "query must brown out"

(* Backpressure raises the strict bar: the same query that admits clean
   at pressure 0 browns out at pressure 1. *)
let test_pressure_raises_bar () =
  let adm, p = one_tenant (rows_class ~cap:10 ~rate:0 ()) in
  let cost = Adm.cost ~rows:8 () in
  Adm.set_pressure adm
    { Adm.wal_backlog = 1000; degraded_shards = 0; open_breakers = 0 };
  check_int "one signal, one level" 1 (Adm.pressure_level adm);
  (match Adm.admit adm ~now:0 ~kind:Adm.Query p cost with
  | Adm.Brownout _ -> ()
  | _ -> Alcotest.fail "raised bar must brown out");
  Adm.set_pressure adm Adm.no_pressure;
  match Adm.admit adm ~now:0 ~kind:Adm.Query p (Adm.cost ~rows:2 ()) with
  | Adm.Admitted _ -> ()
  | _ -> Alcotest.fail "pressure cleared, strict admit expected"

(* settle charges the overrun beyond the declared cost: the class goes
   into debt and its next admit waits for the refill to cover it. *)
let test_settle_overrun_debt () =
  let adm, p = one_tenant (rows_class ~cap:10 ~rate:10 ()) in
  (match Adm.admit adm ~now:0 ~kind:Adm.Query p (Adm.cost ~rows:2 ()) with
  | Adm.Admitted _ -> ()
  | _ -> Alcotest.fail "setup admit failed");
  (* declared 2, actually consumed 10: 8 tokens of overrun debt *)
  Adm.settle adm ~now:0 p ~declared:(Adm.cost ~rows:2 ())
    { Relational.Errors.rows_out = 10; tuples = 0; ticks = 0 };
  check_bool "in debt: next admit shed" true (is_rejected (admit_one adm p ~now:0));
  check_bool "refill pays the debt down" true (is_admitted (admit_one adm p ~now:1000))

(* --- deficit round-robin fairness --- *)

(* A 10:1 hot tenant under a serve limit: the victim's whole burst is
   admitted; the hot tenant absorbs every overload shed. *)
let test_drain_fairness_10_to_1 () =
  let adm =
    Adm.create ~now:0
      [ ("victim", rows_class ~cap:100 ~rate:50 ());
        ("hot", rows_class ~cap:1000 ~rate:500 ());
      ]
  in
  Adm.assign adm ~tenant:"v" "victim";
  Adm.assign adm ~tenant:"h" "hot";
  let req tenant i =
    (Adm.principal ~tenant ~request:(string_of_int i) (), Adm.cost ~rows:1 (), Adm.Mutation)
  in
  let victim = List.init 8 (req "v") in
  let hot = List.init 80 (req "h") in
  let results = Adm.drain adm ~now:0 ~serve_limit:30 (victim @ hot) in
  check_int "every request decided exactly once" 88 (List.length results);
  let admitted tenant =
    List.length
      (List.filter
         (fun ((p : Adm.principal), d) -> p.Adm.tenant = tenant && is_admitted d)
         results)
  in
  check_int "victim burst fully served" 8 (admitted "v");
  check_int "hot tenant gets the remaining capacity" 22 (admitted "h");
  List.iter
    (fun ((p : Adm.principal), d) ->
      match d with
      | Adm.Brownout _ -> Alcotest.fail "drain browned out a mutation"
      | Adm.Rejected r ->
        check_bool "only the hot tenant is shed" true (p.Adm.tenant = "h");
        check_bool "overload sheds hint an immediate retry" true
          (r.Adm.retry_after_ms = Some 1)
      | Adm.Admitted _ -> ())
    results

(* --- all-or-nothing gated ingestion --- *)

let entry i =
  Hdb.Audit_schema.entry ~time:i ~op:Hdb.Audit_schema.Allow ~user:"u" ~data:"mri"
    ~purpose:"diagnosis" ~authorized:"radiologist" ~status:Hdb.Audit_schema.Regular

(* A shed batch leaves the site byte-identical — store, sequence floor
   and quarantine all untouched — and the same batch ingests whole once
   the bucket refills. *)
let test_shed_batch_leaves_site_untouched () =
  let adm = Adm.create ~now:0 [ ("tight", rows_class ~cap:5 ~rate:5 ()) ] in
  Adm.assign adm ~tenant:"clinic" "tight";
  let site = Site.create ~name:"gated" () in
  Site.set_admission site (Some adm);
  let principal = Adm.principal ~tenant:"clinic" () in
  (match Site.ingest_entries_admitted site ~now:0 ~principal [ entry 1; entry 2 ] with
  | Ok n -> check_int "affordable batch ingests whole" 2 n
  | Error _ -> Alcotest.fail "setup batch shed");
  let before = (Site.length site, Site.next_seq site, Site.quarantined_count site) in
  let oversized = List.init 4 (fun i -> entry (10 + i)) in
  (match Site.ingest_entries_admitted site ~now:0 ~principal oversized with
  | Error r ->
    check_bool "retryable" true (r.Adm.retry_after_ms <> None);
    check_bool "site untouched by the shed" true
      (before = (Site.length site, Site.next_seq site, Site.quarantined_count site))
  | Ok _ -> Alcotest.fail "oversized batch admitted");
  match Site.ingest_entries_admitted site ~now:2000 ~principal oversized with
  | Ok n ->
    check_int "same batch whole after refill" 4 n;
    check_int "nothing double-ingested" 6 (Site.length site)
  | Error _ -> Alcotest.fail "refilled batch still shed"

(* --- health accounting --- *)

(* satellite pin: a site with zero expected entries is vacuously complete
   (1.0) — the completeness division must never produce NaN. *)
let test_site_completeness_zero_entries () =
  let empty =
    Health.make ~site:"idle" ~status:(Health.Delivered { retries = 0 }) ~entries:0
      ~quarantined:0 ~skipped_entries:0 ~breaker:Audit_mgmt.Breaker.Closed ~trips:0 ()
  in
  let c = Health.site_completeness empty in
  check_bool "not NaN" false (Float.is_nan c);
  check_bool "vacuously complete" true (c = 1.0);
  check_bool "empty site is ok" true (Health.site_ok empty)

(* --- limits composition --- *)

let test_limits_min_tightest_wins () =
  let a = Budget.limits ~rows:10 ~ticks:100 () in
  let b = Budget.limits ~rows:50 ~tuples:7 () in
  let m = Budget.limits_min a b in
  check_bool "rows: both set, min" true (m.Budget.max_rows = Some 10);
  check_bool "tuples: one set" true (m.Budget.max_tuples = Some 7);
  check_bool "ticks: one set" true (m.Budget.deadline = Some 100);
  check_bool "wall: neither set" true (m.Budget.max_wall_ms = None);
  check_bool "unlimited is the identity" true
    (Budget.limits_min Budget.unlimited a = a)

(* --- the admitted paths through the assembled system --- *)

let make_system () =
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~training_minimum:1 ~vocab ~p_ps () in
  let control = Prima_system.System.control system in
  List.iter
    (fun sql -> ignore (Hdb.Control_center.admin_exec control sql))
    [ "CREATE TABLE records (patient TEXT, referral TEXT)";
      "INSERT INTO records VALUES ('p1', 'r1'), ('p2', 'r2')";
    ];
  Hdb.Control_center.set_patient_column control ~table:"records" ~column:"patient";
  Hdb.Control_center.map_column control ~table:"records" ~column:"referral"
    ~category:"referral";
  Hdb.Audit_store.append_all
    (Hdb.Control_center.audit_store control)
    (Workload.Scenario.table1_entries ());
  system

(* refine through a class that half-affords the declared cost: the epoch
   runs as a brownout and must label its coverage Lower_bound with a
   Brownout reason — and, the tightened budget never firing, no
   Budget_truncated one. *)
let test_refine_admitted_brownout_lower_bound () =
  let system = make_system () in
  Prima_system.System.set_budget_classes system
    [ ("throttled", rows_class ~cap:200 ~rate:200 ()) ];
  Prima_system.System.assign_tenant system ~tenant:"analyst" ~class_name:"throttled";
  let principal = Adm.principal ~tenant:"analyst" () in
  (match Prima_system.System.refine_admitted system ~principal with
  | Ok report ->
    check_bool "brownout epoch is a lower bound over the whole window" true
      (match report.Prima_core.Refinement.qualifier with
      | Prima_core.Coverage.Lower_bound e -> e.Prima_core.Coverage.completeness = 1.0
      | Prima_core.Coverage.Exact -> false);
    check_bool "the brownout is its only reason" true
      (Prima_core.Coverage.reasons report.Prima_core.Refinement.qualifier
      = [ Prima_core.Coverage.Brownout ]);
    check_int "3/10 -> 8/10" 8
      report.Prima_core.Refinement.coverage_after.Prima_core.Coverage.overlap;
    let printed = Fmt.str "%a" Prima_core.Report.pp_epoch report in
    let has sub =
      let n = String.length printed and m = String.length sub in
      let rec go i = i + m <= n && (String.sub printed i m = sub || go (i + 1)) in
      go 0
    in
    check_bool "the report names the brownout, not a budget that never fired" true
      (has "brownout grant" && not (has "resource budget"))
  | Error e -> Alcotest.fail ("brownout refine failed: " ^ e));
  let gov = Prima_system.System.governance system in
  check_int "brownout epoch counted" 1 gov.Prima_system.System.brownout_epochs;
  check_int "the budget never fired" 0 gov.Prima_system.System.degraded_epochs;
  check_bool "class counters surfaced" true
    (List.exists
       (fun (s : Adm.class_stats) -> s.Adm.cls = "throttled" && s.Adm.brownouts = 1)
       gov.Prima_system.System.classes)

(* An exhausted class sheds the whole request — typed, retryable, and
   counted — and a generous class on the same system still runs exact. *)
let test_enforce_admitted_shed_and_exact () =
  let system = make_system () in
  Prima_system.System.set_budget_classes system
    [ ("zero", rows_class ~cap:0 ~rate:0 ());
      ("gold", rows_class ~cap:4096 ~rate:4096 ());
    ]
  ;
  Prima_system.System.assign_tenant system ~tenant:"blocked" ~class_name:"zero";
  Prima_system.System.assign_tenant system ~tenant:"vip" ~class_name:"gold";
  let sql = "SELECT referral FROM records" in
  (match
     Prima_system.System.enforce_admitted system
       ~principal:(Adm.principal ~tenant:"blocked" ())
       ~user:"nancy" ~role:"nurse" ~purpose:"treatment" sql
   with
  | Error (Prima_system.System.Shed r) ->
    check_bool "zero capacity: no retry promise" true (r.Adm.retry_after_ms = None)
  | _ -> Alcotest.fail "zero class must shed");
  (match
     Prima_system.System.enforce_admitted system
       ~principal:(Adm.principal ~tenant:"vip" ())
       ~user:"nancy" ~role:"nurse" ~purpose:"treatment" sql
   with
  | Ok o -> check_bool "generous class runs strict" false o.Prima_system.System.browned_out
  | Error _ -> Alcotest.fail "gold class must admit");
  let gov = Prima_system.System.governance system in
  check_int "shed counted" 1 gov.Prima_system.System.shed_requests

let () =
  Alcotest.run "admission"
    [ ( "refill-boundary",
        [ Alcotest.test_case "exactly-now tick grants" `Quick test_refill_exactly_now;
          Alcotest.test_case "carry boundary" `Quick test_refill_carry_boundary;
          Alcotest.test_case "retry hint is closed" `Quick test_retry_hint_closed_boundary;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity_never_admits;
          Alcotest.test_case "zero rate" `Quick test_zero_rate_no_hint;
          Alcotest.test_case "set_class clamps" `Quick test_set_class_clamps_tokens;
        ] );
      ( "shed-brownout",
        [ Alcotest.test_case "query browns out, mutation sheds" `Quick
            test_query_brownout_mutation_shed;
          Alcotest.test_case "pressure raises the bar" `Quick test_pressure_raises_bar;
          Alcotest.test_case "settle overrun debt" `Quick test_settle_overrun_debt;
        ] );
      ( "fairness",
        [ Alcotest.test_case "10:1 drain" `Quick test_drain_fairness_10_to_1 ] );
      ( "gated-ingestion",
        [ Alcotest.test_case "shed leaves site untouched" `Quick
            test_shed_batch_leaves_site_untouched;
        ] );
      ( "health",
        [ Alcotest.test_case "zero-entry completeness" `Quick
            test_site_completeness_zero_entries;
        ] );
      ( "limits",
        [ Alcotest.test_case "limits_min tightest wins" `Quick test_limits_min_tightest_wins ] );
      ( "system",
        [ Alcotest.test_case "refine brownout lower bound" `Quick
            test_refine_admitted_brownout_lower_bound;
          Alcotest.test_case "enforce shed and exact" `Quick
            test_enforce_admitted_shed_and_exact;
        ] );
    ]
