(* Multi-tenant admission control: the token-bucket refill boundary, shed
   and brownout semantics, deficit-round-robin fairness, all-or-nothing
   gated ingestion, the rows-only controller against the four-resource
   one it replaced, and the admitted paths through the assembled system.

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
  let principal = Adm.principal ~tenant:"clinic" () in
  (match Site.ingest_entries_admitted adm site ~now:0 ~principal [ entry 1; entry 2 ] with
  | Ok n -> check_int "affordable batch ingests whole" 2 n
  | Error _ -> Alcotest.fail "setup batch shed");
  let before = (Site.length site, Site.next_seq site, Site.quarantined_count site) in
  let oversized = List.init 4 (fun i -> entry (10 + i)) in
  (match Site.ingest_entries_admitted adm site ~now:0 ~principal oversized with
  | Error r ->
    check_bool "retryable" true (r.Adm.retry_after_ms <> None);
    check_bool "site untouched by the shed" true
      (before = (Site.length site, Site.next_seq site, Site.quarantined_count site))
  | Ok _ -> Alcotest.fail "oversized batch admitted");
  match Site.ingest_entries_admitted adm site ~now:2000 ~principal oversized with
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
let test_refine_brownout_lower_bound () =
  let system = make_system () in
  Prima_system.System.set_budget_classes system
    [ ("throttled", rows_class ~cap:200 ~rate:200 ()) ];
  Prima_system.System.assign_tenant system ~tenant:"analyst" ~class_name:"throttled";
  let principal = Adm.principal ~tenant:"analyst" () in
  (match Prima_system.System.refine system ~principal with
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

(* An epoch that raises (here the privacy officer's acceptance step) must not
   leave the grant's limits installed: every later refinement and
   enforcement query would run under them. *)
let test_refine_restores_limits () =
  let system = make_system () in
  Prima_system.System.set_budget_classes system [ ("gold", rows_class ~cap:4096 ~rate:4096 ()) ];
  Prima_system.System.assign_tenant system ~tenant:"analyst" ~class_name:"gold";
  let prima = Prima_system.System.prima system in
  Prima_core.Prima.set_refinement_config prima
    { (Prima_core.Prima.refinement_config prima) with
      Prima_core.Refinement.acceptance =
        Prima_core.Refinement.Oracle (fun _ -> failwith "privacy officer unavailable")
    };
  (match
     Prima_system.System.refine system ~principal:(Adm.principal ~tenant:"analyst" ())
   with
  | _ -> Alcotest.fail "the acceptance step was never reached"
  | exception Failure _ -> ());
  check_bool "no limits were standing before, none after" true
    (Prima_system.System.query_limits system = None)

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

(* Backpressure has one definition, whichever decision refreshed it
   last.  With group commit on, 70 unsynced central audit records put the
   backlog over its 64-record threshold, so after a consolidation the
   level is 1: a gated 600-row ingest from a fresh 1,000-row class, which
   at level 1 needs 1,200 rows of headroom, is shed on pressure alone. *)
let test_consolidation_counts_central_backlog () =
  let storage =
    { Prima_system.System.audit_log = Durable.Log.create ~seed:3 ();
      quarantine_log = Durable.Log.create ~seed:4 ();
    }
  in
  let system =
    Prima_system.System.create ~storage ~vocab:(Vocabulary.Samples.figure1 ())
      ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  Prima_system.System.set_group_commit system true;
  let central = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  for _ = 1 to 7 do
    Hdb.Audit_store.append_all central (Workload.Scenario.table1_entries ())
  done;
  let ward = Site.create ~name:"ward" () in
  Prima_system.System.add_site system ward;
  Prima_system.System.set_budget_classes system [ ("feed", rows_class ~cap:1000 ~rate:1000 ()) ];
  Prima_system.System.assign_tenant system ~tenant:"feed" ~class_name:"feed";
  let fed = Prima_system.System.federation system in
  let adm = Option.get (Audit_mgmt.Federation.admission fed) in
  ignore (Prima_system.System.coverage_qualified system);
  (match
     Site.ingest_entries_admitted adm ward ~now:(Audit_mgmt.Federation.clock fed)
       ~principal:(Adm.principal ~tenant:"feed" ())
       (List.init 600 entry)
   with
  | Error r ->
    check_bool "shed on pressure alone: retry at the next tick" true
      (r.Adm.retry_after_ms = Some 1);
    check_int "nothing ingested" 0 (Site.length ward)
  | Ok _ -> Alcotest.fail "600 rows admitted from a 1,000-row class at level 1");
  check_int "the consolidation counted the central backlog" 1 (Adm.pressure_level adm);
  Audit_mgmt.Federation.refresh_pressure fed;
  check_int "an explicit refresh reads the same" 1 (Adm.pressure_level adm)

(* --- the rows-only controller against the four-resource reference --- *)

(* Every caller configures a rows quota only, so the controller meters
   rows alone.  [Admission_reference] is the controller as it was when it
   kept a bucket per resource; driven through the same random program —
   rows-only classes (unmetered, zero capacity and zero rate among them),
   assignments, reconfigurations, pressure, clock steps, admits, settles
   and drains — both must take every decision and keep every counter
   alike. *)

module Ref = Test_support.Admission_reference

(* A class: its weight and, when metered, its rows quota (capacity,
   refill per second). *)
type spec = int * (int * int) option

(* A request: tenant, query (or mutation), declared rows and ticks. *)
type request = int * bool * int * int

type op =
  | Assign of int * int  (** tenant, class *)
  | Set_class of int * spec  (** adds class 3; removes or resizes a quota *)
  | Pressure of int * int * int  (** WAL backlog, degraded shards, open breakers *)
  | Clock of int  (** milliseconds forward *)
  | Admit of request
  | Settle of request * int  (** the declared request, actual rows out *)
  | Drain of request list * int option  (** the burst, serve limit *)

let class_name i = Printf.sprintf "c%d" i
let tenant_name i = Printf.sprintf "t%d" i

let gen_spec =
  let open QCheck2.Gen in
  let* weight = int_range 1 3
  and* rows =
    option ~ratio:0.8 (pair (int_range 0 12) (oneofl [ 0; 1; 2; 3; 7; 250; 1000; 3000 ]))
  in
  return (weight, rows)

let gen_request =
  let open QCheck2.Gen in
  let* tenant = int_range 0 3
  and* query = bool
  and* rows = frequency [ (1, return 0); (6, int_range 1 8); (1, int_range 9 20) ]
  and* ticks = oneofl [ 0; 0; 1; 5; 16; 64 ] in
  return (tenant, query, rows, ticks)

let gen_admission_op =
  let open QCheck2.Gen in
  frequency
    [ (2, map2 (fun t c -> Assign (t, c)) (int_range 0 3) (int_range 0 3));
      (1, map2 (fun c spec -> Set_class (c, spec)) (int_range 0 3) gen_spec);
      ( 2,
        map3
          (fun wal shards breakers -> Pressure (wal, shards, breakers))
          (oneofl [ 0; 63; 64; 500 ]) (int_range 0 1) (int_range 0 1) );
      (3, map (fun ms -> Clock ms) (oneofl [ 0; 1; 7; 333; 334; 999; 1000; 2500; 10_000 ]));
      (8, map (fun r -> Admit r) gen_request);
      (2, map2 (fun r rows_out -> Settle (r, rows_out)) gen_request (int_range 0 30));
      ( 2,
        map2
          (fun burst limit -> Drain (burst, limit))
          (list_size (int_range 0 12) gen_request)
          (option (int_range 0 40)) );
    ]

let gen_admission_program =
  let open QCheck2.Gen in
  let* classes = list_size (int_range 1 3) gen_spec
  and* default_standard = bool
  and* start = oneofl [ 0; 5 ]
  and* ops = list_size (int_range 1 40) gen_admission_op in
  return (classes, default_standard, start, ops)

let request_to_string (t, query, rows, ticks) =
  Printf.sprintf "%s %s rows=%d ticks=%d" (tenant_name t) (if query then "query" else "mutation")
    rows ticks

let spec_to_string (weight, rows) =
  Printf.sprintf "w%d %s" weight
    (match rows with
    | None -> "unmetered"
    | Some (cap, rate) -> Printf.sprintf "%d@%d/s" cap rate)

let admission_op_to_string = function
  | Assign (t, c) -> Printf.sprintf "assign %s %s" (tenant_name t) (class_name c)
  | Set_class (c, spec) -> Printf.sprintf "set %s %s" (class_name c) (spec_to_string spec)
  | Pressure (wal, shards, breakers) -> Printf.sprintf "pressure %d/%d/%d" wal shards breakers
  | Clock ms -> Printf.sprintf "+%dms" ms
  | Admit r -> "admit " ^ request_to_string r
  | Settle (r, rows_out) -> Printf.sprintf "settle %s out=%d" (request_to_string r) rows_out
  | Drain (burst, limit) ->
    Printf.sprintf "drain%s [%s]"
      (match limit with None -> "" | Some l -> Printf.sprintf " limit=%d" l)
      (String.concat "; " (List.map request_to_string burst))

let admission_program_to_string (classes, default_standard, start, ops) =
  Printf.sprintf "classes [%s] default=%s start=%d: %s"
    (String.concat "; " (List.map spec_to_string classes))
    (if default_standard then "standard" else class_name 0)
    start
    (String.concat "; " (List.map admission_op_to_string ops))

let limits_to_string (l : Budget.limits) =
  let o = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf "rows=%s tuples=%s ticks=%s wall=%s" (o l.Budget.max_rows)
    (o l.Budget.max_tuples) (o l.Budget.deadline) (o l.Budget.max_wall_ms)

let grant_to_string verdict cls mode limits =
  Printf.sprintf "%s %s %s %s" verdict cls
    (match mode with Budget.Strict -> "strict" | Budget.Partial -> "partial")
    (limits_to_string limits)

let rejection_to_string tenant cls resource hint =
  Printf.sprintf "shed %s %s %s %s" tenant cls
    (match resource with
    | Relational.Errors.Rows -> "rows"
    | Relational.Errors.Tuples -> "tuples"
    | Relational.Errors.Time -> "time")
    (match hint with None -> "never" | Some ms -> Printf.sprintf "%dms" ms)

let decision_to_string = function
  | Adm.Admitted g -> grant_to_string "admitted" g.Adm.g_class g.Adm.g_mode g.Adm.g_limits
  | Adm.Brownout g -> grant_to_string "brownout" g.Adm.g_class g.Adm.g_mode g.Adm.g_limits
  | Adm.Rejected r ->
    rejection_to_string r.Adm.r_tenant r.Adm.r_class r.Adm.r_resource r.Adm.retry_after_ms

let reference_decision_to_string = function
  | Ref.Admitted g -> grant_to_string "admitted" g.Ref.g_class g.Ref.g_mode g.Ref.g_limits
  | Ref.Brownout g -> grant_to_string "brownout" g.Ref.g_class g.Ref.g_mode g.Ref.g_limits
  | Ref.Rejected r ->
    rejection_to_string r.Ref.r_tenant r.Ref.r_class r.Ref.r_resource r.Ref.retry_after_ms

let stats_to_string (cls, weight, admitted, brownouts, shed) =
  Printf.sprintf "%s w%d %d/%d/%d" cls weight admitted brownouts shed

(* What a call printed, or the Invalid_argument it raised (assigning a
   tenant to a class not yet added). *)
let outcome f = match f () with lines -> lines | exception Invalid_argument m -> [ m ]

let run_admission_program (classes, default_standard, start, ops) =
  let config (weight, rows) =
    Adm.class_config ~weight
      ?rows:(Option.map (fun (capacity, refill_per_s) -> Adm.quota ~capacity ~refill_per_s ()) rows)
      ()
  in
  let reference_config (weight, rows) =
    Ref.class_config ~weight
      ?rows:(Option.map (fun (capacity, refill_per_s) -> Ref.quota ~capacity ~refill_per_s ()) rows)
      ()
  in
  let named f = List.mapi (fun i spec -> (class_name i, f spec)) classes in
  let default_class = if default_standard then "standard" else class_name 0 in
  let adm = Adm.create ~default_class ~now:start (named config) in
  let reference = Ref.create ~default_class ~now:start (named reference_config) in
  let now = ref start in
  let principal i (t, _, _, _) = Adm.principal ~tenant:(tenant_name t) ~request:(string_of_int i) () in
  let reference_principal i (t, _, _, _) =
    Ref.principal ~tenant:(tenant_name t) ~request:(string_of_int i) ()
  in
  let kind (_, query, _, _) = if query then Adm.Query else Adm.Mutation in
  let reference_kind (_, query, _, _) = if query then Ref.Query else Ref.Mutation in
  let cost (_, _, rows, ticks) = Adm.cost ~rows ~ticks () in
  let reference_cost (_, _, rows, ticks) = Ref.cost ~rows ~ticks () in
  let served (p : Adm.principal) d = p.Adm.request ^ ": " ^ decision_to_string d in
  let reference_served (p : Ref.principal) d =
    p.Ref.request ^ ": " ^ reference_decision_to_string d
  in
  let step = function
    | Assign (t, c) ->
      ( outcome (fun () -> Adm.assign adm ~tenant:(tenant_name t) (class_name c); []),
        outcome (fun () -> Ref.assign reference ~tenant:(tenant_name t) (class_name c); []) )
    | Set_class (c, spec) ->
      Adm.set_class adm (class_name c) (config spec);
      Ref.set_class reference (class_name c) (reference_config spec);
      ([], [])
    | Pressure (wal_backlog, degraded_shards, open_breakers) ->
      Adm.set_pressure adm { Adm.wal_backlog; degraded_shards; open_breakers };
      Ref.set_pressure reference { Ref.wal_backlog; degraded_shards; open_breakers };
      ([ string_of_int (Adm.pressure_level adm) ], [ string_of_int (Ref.pressure_level reference) ])
    | Clock ms ->
      now := !now + ms;
      ([], [])
    | Admit r ->
      ( [ decision_to_string (Adm.admit adm ~now:!now ~kind:(kind r) (principal 0 r) (cost r)) ],
        [ reference_decision_to_string
            (Ref.admit reference ~now:!now ~kind:(reference_kind r) (reference_principal 0 r)
               (reference_cost r));
        ] )
    | Settle (((_, _, _, ticks) as r), rows_out) ->
      let used = { Relational.Errors.rows_out; tuples = 2 * rows_out; ticks = ticks + rows_out } in
      Adm.settle adm ~now:!now (principal 0 r) ~declared:(cost r) used;
      Ref.settle reference ~now:!now (reference_principal 0 r) ~declared:(reference_cost r) used;
      ([], [])
    | Drain (burst, serve_limit) ->
      ( List.map
          (fun (p, d) -> served p d)
          (Adm.drain adm ~now:!now ?serve_limit
             (List.mapi (fun i r -> (principal i r, cost r, kind r)) burst)),
        List.map
          (fun (p, d) -> reference_served p d)
          (Ref.drain reference ~now:!now ?serve_limit
             (List.mapi
                (fun i r -> (reference_principal i r, reference_cost r, reference_kind r))
                burst)) )
  in
  let stats () =
    ( List.map
        (fun (s : Adm.class_stats) ->
          stats_to_string (s.Adm.cls, s.Adm.weight, s.Adm.admitted, s.Adm.brownouts, s.Adm.shed))
        (Adm.stats adm),
      List.map
        (fun (s : Ref.class_stats) ->
          stats_to_string (s.Ref.cls, s.Ref.weight, s.Ref.admitted, s.Ref.brownouts, s.Ref.shed))
        (Ref.stats reference) )
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest ->
      let decided, expected = step op in
      let counted, expected_counts = stats () in
      if decided <> expected || counted <> expected_counts then
        Error
          (Printf.sprintf "step %d (%s): [%s] with counters [%s], the reference [%s] with [%s]" i
             (admission_op_to_string op) (String.concat "; " decided)
             (String.concat "; " counted) (String.concat "; " expected)
             (String.concat "; " expected_counts))
      else go (i + 1) rest
  in
  go 1 ops

let prop_rows_only_matches_reference =
  QCheck2.Test.make ~name:"rows-only admission = the four-resource reference" ~count:500
    ~print:admission_program_to_string gen_admission_program (fun program ->
      match run_admission_program program with
      | Ok () -> true
      | Error why -> QCheck2.Test.fail_report why)

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
      ( "reference",
        [ QCheck_alcotest.to_alcotest ~long:false prop_rows_only_matches_reference ] );
      ( "system",
        [ Alcotest.test_case "refine brownout lower bound" `Quick
            test_refine_brownout_lower_bound;
          Alcotest.test_case "enforce shed and exact" `Quick
            test_enforce_admitted_shed_and_exact;
          Alcotest.test_case "a raising epoch restores the limits" `Quick
            test_refine_restores_limits;
          Alcotest.test_case "a consolidation counts the central backlog" `Quick
            test_consolidation_counts_central_backlog;
        ] );
    ]
