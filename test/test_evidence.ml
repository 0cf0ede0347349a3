(* The lower-bound evidence contract: every layer that can lose or
   truncate part of the audit trail emits its own typed reasons, [Exact]
   means exactly "no reason", and a lower bound's verdict and completeness
   are what the flag-based rule it replaced gave on the same facts.

   One unit test per reason and emitting layer — the federation's health
   report, the system's recovery, the refinement epoch — and a QCheck
   property pinning the verdict against that rule and the [join] laws.
   The tamper, central lost-tail, brownout, budget and stale-torn-shard
   cases live beside their layers' other tests (test_durable,
   test_admission, test_budget, test_faults). *)

open Audit_mgmt
module C = Prima_core.Coverage
module Sys_ = Prima_system.System

let check_bool = Alcotest.(check bool)
let reasons_t = Alcotest.testable Fmt.(list ~sep:(any "; ") C.pp_reason) ( = )
let check_reasons = Alcotest.check reasons_t

let entry ?(time = 1) ?(user = "u") () =
  Hdb.Audit_schema.entry ~time ~op:Hdb.Audit_schema.Allow ~user ~data:"referral"
    ~purpose:"treatment" ~authorized:"nurse" ~status:Hdb.Audit_schema.Regular

let entries ?(from = 1) n =
  List.init n (fun i -> entry ~time:(from + i) ~user:(Printf.sprintf "u%d" (from + i)) ())

let site_with name n =
  let site = Site.create ~name () in
  Site.ingest_entries site (entries n);
  site

(* A federation over [sites], each behind a fault-free wrapper that
   [down] takes dark, with no retries. *)
let federation ?archive ?(config = Fault.no_faults) ?(down = []) sites =
  let fed = Federation.create ~retry:Retry.no_retry () in
  Option.iter (Federation.attach_archive fed) archive;
  List.iter
    (fun site ->
      let fault = Fault.wrap ~config ~seed:1 site in
      if List.mem (Site.name site) down then Fault.take_down fault;
      Federation.add_faulty_site fed fault)
    sites;
  fed

let evidence fed = Health.evidence (Federation.consolidated_result fed).Federation.health

(* Any reading will do: the qualifier depends on the evidence alone. *)
let stats =
  C.compute_bag (Workload.Scenario.vocab ()) ~p_x:(Prima_core.Policy.make [])
    ~p_y:(Prima_core.Policy.make [])

(* --- the federation's reasons (Health.evidence) --- *)

let test_skipped_site_dark () =
  let e = evidence (federation ~down:[ "icu" ] [ site_with "icu" 3; site_with "lab" 1 ]) in
  check_reasons "the skipped site, all its entries missing"
    [ C.Site_dark { site = "icu"; lag = 3 } ] e.C.reasons;
  check_bool "completeness 1/4" true (e.C.completeness = 0.25)

let test_stale_site_lag () =
  let icu = site_with "icu" 2 in
  let fed = federation ~archive:(Shard_store.create ~seed:5 ()) [ icu ] in
  check_reasons "a clean fetch names nothing" [] (evidence fed).C.reasons;
  Site.ingest_entries icu (entries ~from:3 1);
  Option.iter Fault.take_down (Federation.fault fed "icu");
  let e = evidence fed in
  check_reasons "served stale, the unarchived entry missing"
    [ C.Site_dark { site = "icu"; lag = 1 } ] e.C.reasons;
  check_bool "completeness 2/3" true (e.C.completeness = 2. /. 3.)

let test_skipped_empty_site_exact () =
  let e = evidence (federation ~down:[ "icu" ] [ Site.create ~name:"icu" () ]) in
  check_reasons "a dark site with nothing stored strands nothing" [] e.C.reasons;
  check_bool "and the reading stays exact" true (C.is_exact (C.qualify e stats))

let raw_row time =
  [ ("time", time); ("op", "1"); ("user", "u"); ("data", "referral");
    ("purpose", "treatment"); ("authorized", "nurse"); ("status", "1") ]

(* Ingest quarantine (an unmappable raw record at one site) and transit
   quarantine (every record of another corrupted on the wire) add up to
   one reason carrying the report's total. *)
let test_quarantine_total () =
  let icu = site_with "icu" 2 in
  ignore (Site.ingest_raw_all icu [ raw_row "3"; raw_row "nope" ]);
  let lab = site_with "lab" 3 in
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_site fed icu;
  Federation.add_faulty_site fed
    (Fault.wrap ~config:{ Fault.no_faults with Fault.p_corrupt = 1.0 } ~seed:3 lab);
  let health = (Federation.consolidated_result fed).Federation.health in
  check_bool "both producers fed the quarantine" true (health.Health.quarantined = 4);
  let e = Health.evidence health in
  check_reasons "one reason, the report's total" [ C.Quarantined 4 ] e.C.reasons;
  check_bool "completeness 3/7" true (e.C.completeness = 3. /. 7.)

(* A site WAL that lost its unsynced tail names itself until the feed
   replays the lost suffix — over a window that is nominally complete. *)
let test_lossy_site_recovery () =
  let log = Durable.Log.create ~seed:11 () in
  let site = Site.create ~name:"lab" () in
  Site.attach_wal site log;
  Site.ingest_entries site (entries 4);
  Site.sync_wal site;
  Site.ingest_entries site (entries ~from:5 2);
  let wal = Durable.Log.wal_device log and snapshot = Durable.Log.snapshot_device log in
  Durable.Device.crash wal ~point:Durable.Device.Partial_header;
  Durable.Device.crash snapshot ~point:Durable.Device.Clean_loss;
  let site', _, _ = Site.open_durable ~name:"lab" (Durable.Log.of_devices ~wal ~snapshot) in
  check_bool "the recovery was lossy" true (Site.durably_degraded site');
  let fed = Federation.of_sites [ site' ] in
  let e = evidence fed in
  check_reasons "the lost tail, before the replay" [ C.Wal_tail_lost "lab" ] e.C.reasons;
  check_bool "over a complete window" true (e.C.completeness = 1.0);
  Site.ingest_entries site' (entries ~from:(Site.length site' + 1) (6 - Site.length site'));
  Site.acknowledge_replay site';
  check_reasons "nothing after the replay" [] (evidence fed).C.reasons

(* An archive may hold shards of a site that is not a member; a damaged
   one keeps readings a lower bound, as it always did. *)
let test_non_member_shard () =
  let a = Shard_store.create ~seed:9 () in
  ignore (Shard_store.archive_site a ~site:"old" (entries 2));
  Shard_store.sync a;
  let _, wal, _ = List.find (fun (n, _, _) -> String.equal n "old#0") (Shard_store.devices a) in
  let off, len, _ =
    List.find
      (fun (_, _, k) -> k = Durable.Frame.Data)
      (Durable.Wal.frame_spans (Durable.Device.contents wal))
  in
  Durable.Device.corrupt_stable wal ~pos:(off + (len / 2)) ~bit:1;
  let archive, _ =
    Shard_store.reopen ~manifest:(Shard_store.manifest_device a) ~shards:(Shard_store.devices a) ()
  in
  let e = evidence (federation ~archive [ site_with "icu" 1 ]) in
  check_reasons "the non-member's damaged shard"
    [ C.Shard_degraded { site = "old"; shards = 1 } ] e.C.reasons;
  check_bool "over a complete window" true (e.C.completeness = 1.0)

(* --- the system's standing reasons --- *)

let test_undecodable_central_records () =
  let audit_log = Durable.Log.create ~seed:51 () in
  let quarantine_log = Durable.Log.create ~seed:52 () in
  ignore (Durable.Log.append audit_log "not an audit entry");
  Durable.Log.sync audit_log;
  let restart log =
    Durable.Log.of_devices ~wal:(Durable.Log.wal_device log)
      ~snapshot:(Durable.Log.snapshot_device log)
  in
  let system =
    Sys_.create
      ~storage:{ Sys_.audit_log = restart audit_log; quarantine_log = restart quarantine_log }
      ~vocab:(Workload.Scenario.vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  check_reasons "a CRC-valid record that no longer decodes"
    [ C.Wal_tail_lost "audit" ] (Sys_.standing_reasons system);
  let qc = Sys_.coverage_qualified system in
  check_reasons "carried by every reading" [ C.Wal_tail_lost "audit" ]
    (C.reasons qc.Sys_.bag_semantics.C.qualifier)

(* --- the epoch's reason, after the caller's --- *)

let test_epoch_appends_budget_reason () =
  let caller = { C.completeness = 0.5; reasons = [ C.Site_dark { site = "icu"; lag = 5 } ] } in
  let trail = Prima_core.Trail.create () in
  Prima_core.Trail.append_rules trail
    (Prima_core.Policy.rules (Workload.Scenario.table1_audit_policy ()));
  let report =
    Prima_core.Refinement.run_trail_epoch ~limits:(Relational.Budget.limits ~tuples:3 ())
      ~evidence:caller
      ~vocab:(Workload.Scenario.vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) trail
  in
  match report.Prima_core.Refinement.qualifier with
  | C.Lower_bound e ->
    check_reasons "the caller's reason, then the budget's"
      [ C.Site_dark { site = "icu"; lag = 5 };
        C.Budget_truncated report.Prima_core.Refinement.budget_stats;
      ]
      e.C.reasons;
    check_bool "the caller's completeness" true (e.C.completeness = 0.5)
  | C.Exact -> Alcotest.fail "a starved epoch over a partial window read Exact"

(* --- QCheck: the verdict the flags gave, the join laws --- *)

(* The facts a reading used to be qualified from. *)
type facts = {
  rows : (int * int * int * bool) list;  (** entries, quarantined, stranded, WAL replay pending *)
  tally : (int * int) list;  (** per archived site: shards, of which degraded *)
  audit_lost : bool;  (** dropped tail or undecodable records *)
  quarantine_lost : bool;
  tampered : int option;  (** divergence offset *)
  truncated : bool;  (** extraction hit its budget *)
  brownout : bool;
}

let gen_facts =
  let open QCheck2.Gen in
  let rare = frequency [ (5, pure false); (1, pure true) ] in
  let row = quad (int_bound 5) (int_bound 2) (int_bound 3) rare in
  let shard =
    int_range 1 3 >>= fun n ->
    map (fun bad -> (n, bad)) (frequency [ (3, pure 0); (1, int_bound n) ])
  in
  map
    (fun ((rows, tally), (audit_lost, quarantine_lost, tampered), (truncated, brownout)) ->
      { rows; tally; audit_lost; quarantine_lost; tampered; truncated; brownout })
    (triple
       (pair (list_size (int_bound 4) row) (list_size (int_bound 3) shard))
       (triple rare rare (opt ~ratio:0.15 (int_bound 4096)))
       (pair rare rare))

let site_name i = Printf.sprintf "site-%d" i
let no_stats = { Relational.Errors.rows_out = 0; tuples = 0; ticks = 0 }

let health_of f =
  Health.of_sites
    ~shards:(List.mapi (fun i t -> (site_name i, t)) f.tally)
    (List.mapi
       (fun i (entries, quarantined, skipped_entries, site_degraded) ->
         Health.make ~site_degraded ~site:(site_name i) ~status:(Health.Delivered { retries = 0 })
           ~entries ~quarantined ~skipped_entries ~breaker:Breaker.Closed ~trips:0 ())
       f.rows)

(* Each layer's reasons from the same facts, joined as the system joins
   them: the federation's, the central pair's, then the epoch's. *)
let evidence_of f =
  let only b r = if b then [ r ] else [] in
  let central =
    (match f.tampered with
    | Some offset -> [ C.Tampered { log = "audit"; offset } ]
    | None -> only f.audit_lost (C.Wal_tail_lost "audit"))
    @ only f.quarantine_lost (C.Wal_tail_lost "quarantine")
  in
  C.join
    (C.join (Health.evidence (health_of f)) { C.exact with reasons = central })
    { C.exact with
      reasons = only f.truncated (C.Budget_truncated no_stats) @ only f.brownout C.Brownout;
    }

(* The rule the verified/degraded flags and the brownout rewrite encoded. *)
let flag_rule f =
  let verified =
    (not (f.audit_lost || f.quarantine_lost || f.tampered <> None))
    && (not (List.exists (fun (_, _, _, pending) -> pending) f.rows))
    && List.for_all (fun (_, bad) -> bad = 0) f.tally
  in
  (health_of f).Health.completeness >= 1.0 && verified && (not f.truncated) && not f.brownout

let prop_verdict_matches_flags =
  QCheck2.Test.make ~name:"is_exact = the flag rule, completeness kept" ~count:2000 gen_facts
    (fun f ->
      let e = evidence_of f in
      let health = health_of f in
      let dark_or_quarantined =
        List.exists (function C.Site_dark _ | C.Quarantined _ -> true | _ -> false) e.C.reasons
      in
      C.is_exact (C.qualify e stats) = flag_rule f
      && e.C.completeness = health.Health.completeness
      && (e.C.completeness < 1.0) = dark_or_quarantined
      && (C.qualify e stats).C.qualifier = (if e.C.reasons = [] then C.Exact else C.Lower_bound e))

let gen_evidence =
  let open QCheck2.Gen in
  let reason =
    oneof
      [ map (fun lag -> C.Site_dark { site = "s"; lag }) (int_range 1 9);
        map (fun n -> C.Quarantined n) (int_range 1 9);
        pure (C.Wal_tail_lost "audit");
        map (fun offset -> C.Tampered { log = "audit"; offset }) (int_bound 99);
        map (fun shards -> C.Shard_degraded { site = "s"; shards }) (int_range 1 3);
        pure (C.Budget_truncated no_stats);
        pure C.Brownout;
      ]
  in
  map2
    (fun completeness reasons -> { C.completeness; reasons })
    (oneof [ pure 1.0; float_bound_inclusive 1.0 ])
    (list_size (int_bound 3) reason)

let prop_join_laws =
  QCheck2.Test.make ~name:"join: exact is the unit, associative, min completeness" ~count:1000
    QCheck2.Gen.(triple gen_evidence gen_evidence gen_evidence)
    (fun (a, b, c) ->
      C.join C.exact a = a
      && C.join a C.exact = a
      && C.join (C.join a b) c = C.join a (C.join b c)
      && (C.join a b).C.completeness = Float.min a.C.completeness b.C.completeness
      && (C.join a b).C.reasons = a.C.reasons @ b.C.reasons)

let () =
  Alcotest.run "evidence"
    [ ( "federation",
        [ Alcotest.test_case "skipped site is dark" `Quick test_skipped_site_dark;
          Alcotest.test_case "stale site lags" `Quick test_stale_site_lag;
          Alcotest.test_case "skipped empty site stays exact" `Quick
            test_skipped_empty_site_exact;
          Alcotest.test_case "ingest + transit quarantine" `Quick test_quarantine_total;
          Alcotest.test_case "lossy site recovery until replay" `Quick test_lossy_site_recovery;
          Alcotest.test_case "damaged shard of a non-member" `Quick test_non_member_shard;
        ] );
      ( "system",
        [ Alcotest.test_case "undecodable central records" `Quick
            test_undecodable_central_records;
        ] );
      ( "refinement",
        [ Alcotest.test_case "budget reason after the caller's" `Quick
            test_epoch_appends_budget_reason;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_verdict_matches_flags; prop_join_laws ] );
    ]
