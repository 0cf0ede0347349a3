(* Fault-matrix suite: deterministic fault injection over the federation.

   For seeded fault schedules, consolidation must never raise, the health
   report must account for 100% of input records (delivered + quarantined +
   stranded at skipped sites), runs must be reproducible bit-for-bit from
   the seed, and — the convergence oracle — once every site recovers and
   quarantined records are reprocessed, the refinement loop must accept
   exactly the same rules as the fault-free run.

   `make faults` runs this binary; the three fixed seeds of the matrix are
   baked in below. *)

open Audit_mgmt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let matrix_seeds = [ 101; 202; 303 ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let entry ?(time = 1) ?(op = Hdb.Audit_schema.Allow) ?(user = "u") ?(data = "referral")
    ?(purpose = "treatment") ?(authorized = "nurse")
    ?(status = Hdb.Audit_schema.Regular) () =
  Hdb.Audit_schema.entry ~time ~op ~user ~data ~purpose ~authorized ~status

(* --- retry --- *)

let test_retry_flaky_then_success () =
  let prng = Splitmix.create ~seed:1 in
  let clock = ref 0 in
  let calls = ref 0 in
  let result, stats =
    Retry.run ~policy:{ Retry.default with max_attempts = 5 } ~prng ~clock (fun ~attempt ->
        incr calls;
        if attempt < 3 then Error "flaky" else Ok attempt)
  in
  check_bool "succeeded" true (result = Ok 3);
  check_int "three calls" 3 !calls;
  check_int "attempts reported" 3 stats.Retry.attempts;
  check_bool "backoff advanced the clock" true (!clock > 0)

let test_retry_exhaustion_and_deadline () =
  let prng = Splitmix.create ~seed:1 in
  let clock = ref 0 in
  let result, stats =
    Retry.run ~policy:{ Retry.default with max_attempts = 3 } ~prng ~clock (fun ~attempt:_ ->
        Error "down")
  in
  check_bool "exhausted" true (result = Error "down");
  check_int "bounded attempts" 3 stats.Retry.attempts;
  (* A tight deadline cuts retries short regardless of max_attempts. *)
  let clock = ref 0 in
  let _, stats =
    Retry.run
      ~policy:{ Retry.default with max_attempts = 100; base_delay = 600; deadline = 1_000 }
      ~prng ~clock
      (fun ~attempt:_ -> Error "down")
  in
  check_bool "deadline bounds attempts" true (stats.Retry.attempts < 100)

(* The deadline boundary is closed: an attempt that would start at exactly
   [deadline] elapsed ms is refused.  Jitter off, base = max = 50ms, so the
   backoff trajectory is exact: attempt 1 at t=0, attempt 2 at t=50, and
   the attempt that would start at t=100 = deadline is refused.  Widening
   the budget by a single millisecond admits it. *)
let test_retry_deadline_boundary () =
  let policy =
    { Retry.max_attempts = 10; base_delay = 50; max_delay = 50; jitter = 0.; deadline = 100 }
  in
  let prng = Splitmix.create ~seed:1 in
  let clock = ref 0 in
  let calls = ref 0 in
  let result, stats =
    Retry.run ~policy ~prng ~clock (fun ~attempt:_ ->
        incr calls;
        Error "down")
  in
  check_bool "still failing" true (result = Error "down");
  check_int "attempt at exactly the deadline refused" 2 stats.Retry.attempts;
  check_int "callback count matches" 2 !calls;
  check_int "elapsed stops at the boundary" 100 stats.Retry.elapsed;
  (* one ms of headroom flips the boundary attempt to admitted *)
  let clock = ref 0 in
  let _, stats =
    Retry.run ~policy:{ policy with deadline = 101 } ~prng ~clock (fun ~attempt:_ ->
        Error "down")
  in
  check_int "deadline + 1 admits the boundary attempt" 3 stats.Retry.attempts

(* Jittered schedules are a pure function of the PRNG seed: same seed,
   bit-identical trajectory (attempts, elapsed, final clock); this is what
   lets any fault-matrix or chaos run replay from its seed alone. *)
let test_retry_jitter_determinism () =
  let policy =
    { Retry.max_attempts = 6; base_delay = 40; max_delay = 500; jitter = 0.5; deadline = 5_000 }
  in
  let trajectory seed =
    let prng = Splitmix.create ~seed in
    let clock = ref 0 in
    let _, stats = Retry.run ~policy ~prng ~clock (fun ~attempt:_ -> Error "down") in
    (stats.Retry.attempts, stats.Retry.elapsed, !clock)
  in
  check_bool "same seed, same jittered trajectory" true (trajectory 7 = trajectory 7);
  let a, e, c = trajectory 7 in
  check_int "attempts exhausted" 6 a;
  check_bool "jittered backoff advanced the clock" true (e > 0 && c = e);
  check_bool "different seed, different jitter" true
    (let _, e', _ = trajectory 8 in
     e <> e')

(* --- breaker transitions --- *)

let breaker_config = { Breaker.failure_threshold = 2; cooldown = 100; success_threshold = 1 }

let breaker_state fed name =
  match Federation.breaker fed name with
  | Some b -> Breaker.state b
  | None -> Alcotest.fail "no breaker"

let test_breaker_transitions () =
  let site = Site.create ~name:"icu" () in
  Site.ingest_entries site [ entry ~time:1 (); entry ~time:2 () ];
  let fault = Fault.wrap ~seed:7 site in
  Fault.take_down fault;
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_faulty_site ~breaker:breaker_config fed fault;
  (* First failure: still closed. *)
  let r1 = Federation.consolidated_result fed in
  check_bool "closed after 1 failure" true (breaker_state fed "icu" = Breaker.Closed);
  check_bool "skipped for unavailability" true
    (match (List.hd r1.Federation.health.Health.sites).Health.status with
    | Health.Skipped (Health.Fetch_failed _) -> true
    | _ -> false);
  check_int "entries stranded" 2 r1.Federation.health.Health.skipped_entries;
  (* Second failure trips the breaker. *)
  ignore (Federation.consolidated_result fed);
  check_bool "open after threshold" true (breaker_state fed "icu" = Breaker.Open);
  (* While open and before cooldown, the site is skipped without a fetch. *)
  let r3 = Federation.consolidated_result fed in
  check_bool "skipped by breaker" true
    (match (List.hd r3.Federation.health.Health.sites).Health.status with
    | Health.Skipped Health.Breaker_open -> true
    | _ -> false);
  check_bool "still open" true (breaker_state fed "icu" = Breaker.Open);
  (* Cooldown elapses; the site has recovered; the probe closes it. *)
  Federation.advance_clock fed breaker_config.Breaker.cooldown;
  Fault.restore fault;
  let r4 = Federation.consolidated_result fed in
  check_bool "closed after successful probe" true (breaker_state fed "icu" = Breaker.Closed);
  check_int "entries delivered again" 2 (List.length r4.Federation.entries);
  check_bool "complete again" true (Health.complete r4.Federation.health)

let test_breaker_halfopen_failure_reopens () =
  let b = Breaker.create ~config:breaker_config () in
  Breaker.record_failure b ~now:0;
  Breaker.record_failure b ~now:0;
  check_bool "open" true (Breaker.state b = Breaker.Open);
  check_bool "denied before cooldown" false (Breaker.allow b ~now:50);
  check_bool "probe allowed after cooldown" true (Breaker.allow b ~now:100);
  check_bool "half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_failure b ~now:100;
  check_bool "failed probe reopens" true (Breaker.state b = Breaker.Open)

(* Half-open admits exactly one probe at a time: while the first probe's
   outcome is unrecorded, a second concurrent [allow] is refused — callers
   cannot stampede a barely-recovered site.  Recording the outcome frees
   the slot: a success (threshold 1 here) closes the breaker, a failure
   re-opens it and the next cooldown admits exactly one probe again. *)
let test_breaker_halfopen_single_probe () =
  let b = Breaker.create ~config:breaker_config () in
  Breaker.record_failure b ~now:0;
  Breaker.record_failure b ~now:0;
  check_bool "open" true (Breaker.state b = Breaker.Open);
  check_bool "first probe admitted" true (Breaker.allow b ~now:100);
  check_bool "half-open" true (Breaker.state b = Breaker.Half_open);
  check_bool "second concurrent probe refused" false (Breaker.allow b ~now:100);
  check_bool "still refused later, outcome unrecorded" false (Breaker.allow b ~now:500);
  check_bool "still half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b;
  check_bool "successful probe closes" true (Breaker.state b = Breaker.Closed);
  check_bool "closed admits freely" true (Breaker.allow b ~now:500 && Breaker.allow b ~now:500);
  (* the failure path frees the probe slot too *)
  Breaker.record_failure b ~now:500;
  Breaker.record_failure b ~now:500;
  check_bool "re-opened" true (Breaker.state b = Breaker.Open);
  check_bool "new cooldown, one probe" true (Breaker.allow b ~now:600);
  check_bool "and only one" false (Breaker.allow b ~now:600);
  Breaker.record_failure b ~now:600;
  check_bool "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  check_bool "refused while open" false (Breaker.allow b ~now:650);
  check_bool "next cooldown admits a fresh probe" true (Breaker.allow b ~now:700)

(* --- the durable consolidated archive --- *)

(* With an archive attached, a dark site is served stale from its shards:
   archived records count as delivered, the lag as stranded — and a later
   live fetch catches the archive back up. *)
let test_archive_stale_serving () =
  let site = Site.create ~name:"icu" () in
  Site.ingest_entries site [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ];
  let fault = Fault.wrap ~config:Fault.no_faults ~seed:1 site in
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_faulty_site fed fault;
  let archive = Shard_store.create ~seed:5 () in
  Federation.attach_archive fed archive;
  let r1 = Federation.consolidated_result fed in
  check_bool "live fetch complete" true (Health.complete r1.Federation.health);
  check_int "fetch archived" 2 (Shard_store.site_records archive ~site:"icu");
  (* new entries arrive, then the site goes dark before they are archived *)
  Site.ingest_entries site [ entry ~time:3 ~user:"c" () ];
  Fault.take_down fault;
  let r2 = Federation.consolidated_result fed in
  check_int "stale serve: the archived records" 2 (List.length r2.Federation.entries);
  let h = r2.Federation.health in
  (match (List.hd h.Health.sites).Health.status with
  | Health.Stale { archived = 2; lag = 1 } -> ()
  | s -> Alcotest.failf "expected Stale{2,1}, got %s" (Fmt.str "%a" Health.pp_status s));
  check_int "archived counted delivered" 2 h.Health.delivered;
  check_int "lag counted stranded" 1 h.Health.skipped_entries;
  check_int "accounting intact" h.Health.total
    (h.Health.delivered + h.Health.quarantined + h.Health.skipped_entries);
  check_bool "partial while lagging" true (h.Health.completeness < 1.0);
  (* the site comes back: live fetch resumes and the archive catches up *)
  Fault.restore fault;
  let r3 = Federation.consolidated_result fed in
  check_bool "complete again" true (Health.complete r3.Federation.health);
  check_int "archive caught up" 3 (Shard_store.site_records archive ~site:"icu")

(* Open-or-recover semantics: a torn manifest is rebuilt from shard scans
   (never trusted half-read), and the rebuilt store merges identically. *)
let test_archive_manifest_rebuild () =
  let a = Shard_store.create ~seed:9 () in
  ignore
    (Shard_store.archive_site a ~site:"icu"
       [ entry ~time:1 ~user:"a" (); entry ~time:10_500 ~user:"b" () ]);
  ignore (Shard_store.archive_site a ~site:"lab" [ entry ~time:7 ~user:"c" () ]);
  Shard_store.sync a;
  check_int "two buckets + one = three shards" 3 (Shard_store.shard_count a);
  let served store = List.map (fun site -> Shard_store.merged_site store ~site) [ "icu"; "lab" ] in
  let before = served a in
  (* tear the manifest: drop its last bytes *)
  let md = Shard_store.manifest_device a in
  let img = Durable.Device.contents md in
  Durable.Device.truncate md (String.length img - 3);
  Durable.Device.sync md;
  let b, report = Shard_store.reopen ~manifest:md ~shards:(Shard_store.devices a) () in
  check_bool "manifest rebuilt from scans" true report.Shard_store.manifest_rebuilt;
  check_int "every shard recovered from its scan" 3 (Shard_store.shard_count b);
  check_int "no adoptions against a rebuilt catalogue" 0 report.Shard_store.adopted;
  check_int "no shard degraded" 0 (Shard_store.shards_degraded b);
  check_bool "merge identical after rebuild" true
    (List.equal (List.equal Hdb.Audit_schema.equal) before (served b));
  (* and the rewritten manifest now reads back whole *)
  let _, report2 = Shard_store.reopen ~manifest:md ~shards:(Shard_store.devices b) () in
  check_bool "second open trusts the manifest" false report2.Shard_store.manifest_rebuilt

(* A tampered shard is quarantined per shard, not whole-store: its records
   count stranded, the merge excludes it, the other site still serves —
   and a clean fetch supersedes the damaged archive wholesale. *)
let test_archive_tampered_shard_quarantined () =
  let a = Shard_store.create ~seed:21 () in
  let icu = [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ] in
  ignore (Shard_store.archive_site a ~site:"icu" icu);
  ignore (Shard_store.archive_site a ~site:"lab" [ entry ~time:3 ~user:"c" () ]);
  Shard_store.sync a;
  let _, wal, _ =
    List.find (fun (n, _, _) -> String.equal n "icu#0") (Shard_store.devices a)
  in
  let off, len, _ =
    List.hd
      (List.filter
         (fun (_, _, k) -> k = Durable.Frame.Data)
         (Durable.Wal.frame_spans (Durable.Device.contents wal)))
  in
  Durable.Device.corrupt_stable wal ~pos:(off + (len / 2)) ~bit:3;
  let b, report = Shard_store.reopen ~manifest:(Shard_store.manifest_device a)
      ~shards:(Shard_store.devices a) () in
  check_bool "manifest itself fine" false report.Shard_store.manifest_rebuilt;
  (match Shard_store.shard_status b ~site:"icu" ~bucket:0 with
  | Some (Shard_store.Tampered _) -> ()
  | s ->
    Alcotest.failf "expected Tampered, got %s"
      (match s with Some st -> Shard_store.status_to_string st | None -> "no shard"));
  check_int "tampered shard serves nothing" 0 (Shard_store.site_records b ~site:"icu");
  check_int "its records counted stranded" 2 (Shard_store.site_stranded b ~site:"icu");
  check_bool "site degraded" true (Shard_store.site_degraded b ~site:"icu");
  check_int "blast radius is one shard" 1 (Shard_store.shards_degraded b);
  check_int "other site unaffected" 1 (Shard_store.site_records b ~site:"lab");
  check_bool "merge excludes the quarantined shard" true
    (List.for_all
       (fun site ->
         List.for_all
           (fun e -> e.Hdb.Audit_schema.user = "c")
           (Shard_store.merged_site b ~site))
       [ "icu"; "lab" ]);
  (* a clean fetch supersedes the damaged archive *)
  let s = Shard_store.archive_site b ~site:"icu" icu in
  check_bool "rebuilt wholesale from the fetch" true s.Shard_store.rebuilt;
  check_bool "healthy again" false (Shard_store.site_degraded b ~site:"icu");
  check_int "records back" 2 (Shard_store.site_records b ~site:"icu")

(* A catalogued shard whose device is gone surfaces as lost: a torn
   placeholder keeps the site degraded until the next fetch rebuilds. *)
let test_archive_lost_shard_placeholder () =
  let a = Shard_store.create ~seed:33 () in
  let icu = [ entry ~time:1 ~user:"a" (); entry ~time:10_500 ~user:"b" () ] in
  ignore (Shard_store.archive_site a ~site:"icu" icu);
  Shard_store.sync a;
  let surviving =
    List.filter (fun (n, _, _) -> not (String.equal n "icu#1")) (Shard_store.devices a)
  in
  let b, report =
    Shard_store.reopen ~manifest:(Shard_store.manifest_device a) ~shards:surviving ()
  in
  check_bool "missing shard reported lost" true (report.Shard_store.lost = [ "icu#1" ]);
  check_bool "site degraded until refetched" true (Shard_store.site_degraded b ~site:"icu");
  let s = Shard_store.archive_site b ~site:"icu" icu in
  check_bool "next fetch rebuilds the site" true s.Shard_store.rebuilt;
  check_bool "whole again" false (Shard_store.site_degraded b ~site:"icu");
  check_int "both records servable" 2 (Shard_store.site_records b ~site:"icu")

(* The health report describes the archive as the consolidation left it.
   A clean fetch rebuilds a site's damaged shards wholesale, so the
   rebuilt site reads healthy in the report as in the [Exact] label.  A
   stale-served site gets no archive step: its torn shard stays degraded,
   and the reading is a lower bound that says so. *)

let damaged_icu_archive damage =
  let icu = [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ] in
  let a = Shard_store.create ~seed:21 () in
  ignore (Shard_store.archive_site a ~site:"icu" icu);
  Shard_store.sync a;
  let _, wal, _ = List.find (fun (n, _, _) -> String.equal n "icu#0") (Shard_store.devices a) in
  damage wal;
  let b, _ =
    Shard_store.reopen ~manifest:(Shard_store.manifest_device a) ~shards:(Shard_store.devices a) ()
  in
  check_int "one damaged shard" 1 (Shard_store.shards_degraded b);
  (icu, b)

let system_over ?(down = false) icu archive =
  let system =
    Prima_system.System.create ~vocab:(Workload.Scenario.vocab ())
      ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  let site = Site.create ~name:"icu" () in
  Site.ingest_entries site icu;
  let fault = Fault.wrap ~config:Fault.no_faults ~seed:1 site in
  if down then Fault.take_down fault;
  Prima_system.System.add_faulty_site system fault;
  Prima_system.System.attach_archive system archive;
  Prima_system.System.coverage_qualified system

let test_rebuilt_shard_reads_healthy () =
  let icu, archive =
    damaged_icu_archive (fun wal ->
        let off, len, _ =
          List.find
            (fun (_, _, k) -> k = Durable.Frame.Data)
            (Durable.Wal.frame_spans (Durable.Device.contents wal))
        in
        Durable.Device.corrupt_stable wal ~pos:(off + (len / 2)) ~bit:3)
  in
  let qc = system_over icu archive in
  check_int "the clean fetch rebuilt the shard" 0 (Shard_store.shards_degraded archive);
  check_bool "coverage exact" true
    (Prima_core.Coverage.is_exact qc.Prima_system.System.bag_semantics);
  let health = qc.Prima_system.System.health in
  check_bool "the report agrees: no reason" true
    ((Health.evidence health).Prima_core.Coverage.reasons = []);
  check_bool "and the rebuilt shard healthy" true
    (List.assoc_opt "icu" health.Health.shards = Some (1, 0));
  let printed = Fmt.str "%a" Health.pp health in
  check_bool "printed healthy" true
    (contains printed "shards=1/1" && not (contains printed "lower bound"))

let test_stale_torn_shard_stays_degraded () =
  let icu, archive =
    damaged_icu_archive (fun wal ->
        (* tear the second record in half: the shard keeps one *)
        let off, len, _ =
          List.nth
            (List.filter
               (fun (_, _, k) -> k = Durable.Frame.Data)
               (Durable.Wal.frame_spans (Durable.Device.contents wal)))
            1
        in
        Durable.Device.truncate wal (off + (len / 2));
        Durable.Device.sync wal)
  in
  let qc = system_over ~down:true icu archive in
  check_int "no fetch, no rebuild" 1 (Shard_store.shards_degraded archive);
  match qc.Prima_system.System.bag_semantics.Prima_core.Coverage.qualifier with
  | Prima_core.Coverage.Lower_bound e ->
    check_bool "the torn shard is a reason" true
      (List.mem
         (Prima_core.Coverage.Shard_degraded { site = "icu"; shards = 1 })
         e.Prima_core.Coverage.reasons);
    check_bool "beside the record it lost, stranded" true
      (List.mem
         (Prima_core.Coverage.Site_dark { site = "icu"; lag = 1 })
         e.Prima_core.Coverage.reasons)
  | Prima_core.Coverage.Exact -> Alcotest.fail "a stale torn shard read Exact"

(* A clean fetch whose new entry repeats the site's newest archived time
   appends that entry by position.  The time partition alone would count
   it as already held, find one record too many, and rebuild the site's
   shards on fresh devices. *)
let test_archive_repeated_timestamp () =
  let site = Site.create ~name:"s" () in
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_faulty_site fed (Fault.wrap ~config:Fault.no_faults ~seed:1 site);
  let archive = Shard_store.create ~seed:3 () in
  Federation.attach_archive fed archive;
  Site.ingest_entries site [ entry ~time:5 ~user:"a" () ];
  ignore (Federation.consolidated_result fed);
  let wals () = List.map (fun (name, wal, _) -> (name, wal)) (Shard_store.devices archive) in
  let before = wals () in
  Site.ingest_entries site [ entry ~time:5 ~user:"b" () ];
  let r = Federation.consolidated_result fed in
  check_bool "complete" true (Health.complete r.Federation.health);
  check_int "one record fetched" 1 (List.hd r.Federation.health.Health.sites).Health.fetched;
  check_bool "the shard keeps its device" true
    (List.equal (fun (a, d) (b, e) -> String.equal a b && d == e) before (wals ()));
  Shard_store.sync archive;
  let data_frames =
    List.filter
      (fun (_, _, k) -> k = Durable.Frame.Data)
      (Durable.Wal.frame_spans (Durable.Device.contents (snd (List.hd (wals ())))))
  in
  check_int "one record appended to the first" 2 (List.length data_frames);
  check_int "both archived" 2 (Shard_store.site_records archive ~site:"s")

(* [fetched] counts what the transport carried: the whole store on a first
   fetch, the new records on a suffix fetch, nothing on a stale serve. *)
let test_health_fetched () =
  let site = Site.create ~name:"icu" () in
  Site.ingest_entries site [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ];
  let fault = Fault.wrap ~config:Fault.no_faults ~seed:1 site in
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_faulty_site fed fault;
  Federation.attach_archive fed (Shard_store.create ~seed:5 ());
  let row () =
    let h = (Federation.consolidated_result fed).Federation.health in
    (List.hd h.Health.sites, h)
  in
  let whole, _ = row () in
  check_int "whole fetch: the store" 2 whole.Health.fetched;
  check_int "whole fetch: entries" 2 whole.Health.entries;
  Site.ingest_entries site [ entry ~time:3 ~user:"c" () ];
  let suffix, h = row () in
  check_int "suffix fetch: the new record" 1 suffix.Health.fetched;
  check_int "suffix fetch: the whole window" 3 suffix.Health.entries;
  check_bool "printed" true (contains (Fmt.str "%a" Health.pp h) "fetched=1 entries=3");
  Fault.take_down fault;
  let stale, _ = row () in
  (match stale.Health.status with
  | Health.Stale _ -> ()
  | s -> Alcotest.failf "expected Stale, got %s" (Fmt.str "%a" Health.pp_status s));
  check_int "stale: nothing fetched" 0 stale.Health.fetched;
  check_int "stale: the archived records" 3 stale.Health.entries;
  (* a suffix needs the cursor's wrapper: a replacement is fetched whole *)
  Fault.restore fault;
  ignore (row ());
  Federation.set_fault fed "icu" (Some (Fault.wrap ~config:Fault.no_faults ~seed:2 site));
  let replaced, _ = row () in
  check_int "replaced wrapper: the store" 3 replaced.Health.fetched;
  (* and a clean delivery: after records corrupted in transit, the healed
     wrapper fetches the whole store again *)
  let corrupting = Fault.wrap ~config:{ Fault.no_faults with p_corrupt = 0.5 } ~seed:4 site in
  Federation.set_fault fed "icu" (Some corrupting);
  let holed, _ = row () in
  check_bool "some records corrupted" true (holed.Health.entries < 3);
  Fault.heal corrupting;
  let healed, _ = row () in
  check_int "healed after holes: the store" 3 healed.Health.fetched;
  check_int "healed after holes: all delivered" 3 healed.Health.entries

(* A late entry in a suffix (older than the site's newest delivered) is
   not appended by position: the time partition rebuilds the site's
   shards, so the archive still holds the stream in time order. *)
let test_late_suffix_rebuilds () =
  let site = Site.create ~name:"s" () in
  Site.ingest_entries site [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ];
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_site fed site;
  let archive = Shard_store.create ~seed:3 () in
  Federation.attach_archive fed archive;
  ignore (Federation.consolidated_result fed);
  Site.ingest_entries site [ entry ~time:0 ~user:"c" () ];
  let r = Federation.consolidated_result fed in
  check_int "the late record alone fetched" 1 (List.hd r.Federation.health.Health.sites).Health.fetched;
  check_bool "the archive holds the sorted stream" true
    (List.equal Hdb.Audit_schema.equal
       (List.stable_sort
          (fun (a : Hdb.Audit_schema.entry) b -> Int.compare a.time b.time)
          (Site.entries site))
       (Shard_store.merged_site archive ~site:"s"))

(* The archive appends by position only while it holds the cursor's
   records: an archive swapped in with as many records for the site, but
   older ones, goes through the time partition and is rebuilt from the
   stream. *)
let test_swapped_archive_rebuilds () =
  let site = Site.create ~name:"s" () in
  Site.ingest_entries site [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ];
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_site fed site;
  Federation.attach_archive fed (Shard_store.create ~seed:3 ());
  ignore (Federation.consolidated_result fed);
  let swapped = Shard_store.create ~seed:4 () in
  ignore
    (Shard_store.archive_site swapped ~site:"s"
       [ entry ~time:0 ~user:"x" (); entry ~time:1 ~user:"y" () ]);
  Federation.attach_archive fed swapped;
  Site.ingest_entries site [ entry ~time:3 ~user:"c" () ];
  ignore (Federation.consolidated_result fed);
  check_bool "the archive holds the site's stream" true
    (List.equal Hdb.Audit_schema.equal (Site.entries site)
       (Shard_store.merged_site swapped ~site:"s"))

(* A record the archive holds but the site lost in a crash is not taken
   as held because a late record at the same time keeps the count: the
   archive compares its prefix with the fetch entry by entry, rebuilds
   the site's shards, and a stale serve returns what the site holds. *)
let test_crash_replaced_record_rebuilds () =
  let log = Durable.Log.create ~seed:3 () in
  let site = Site.create ~name:"s" () in
  Site.attach_wal site log;
  let fault = Fault.wrap ~config:Fault.no_faults ~seed:1 site in
  let fed = Federation.create ~retry:Retry.no_retry () in
  Federation.add_faulty_site fed fault;
  let archive = Shard_store.create ~seed:3 () in
  Federation.attach_archive fed archive;
  (* archived, never synced at the site *)
  Site.ingest_entries site [ entry ~time:0 ~user:"a" () ];
  ignore (Federation.consolidated_result fed);
  let wal = Durable.Log.wal_device log and snapshot = Durable.Log.snapshot_device log in
  Durable.Device.crash wal ~point:Durable.Device.Clean_loss;
  let site, _, _ = Site.open_durable ~name:"s" (Durable.Log.of_devices ~wal ~snapshot) in
  check_int "the crash lost the record" 0 (Site.length site);
  Federation.reseat_site fed "s" site;
  Site.ingest_entries site [ entry ~time:1 ~user:"b" (); entry ~time:0 ~user:"c" () ];
  let users entries = List.map (fun e -> e.Hdb.Audit_schema.user) entries in
  ignore (Federation.consolidated_result fed);
  Alcotest.(check (list string))
    "the archive holds the site's records" [ "c"; "b" ]
    (users (Shard_store.merged_site archive ~site:"s"));
  Fault.take_down fault;
  let stale = Federation.consolidated_result fed in
  (match (List.hd stale.Federation.health.Health.sites).Health.status with
  | Health.Stale _ -> ()
  | s -> Alcotest.failf "expected Stale, got %s" (Fmt.str "%a" Health.pp_status s));
  Alcotest.(check (list string))
    "the stale serve returns them" [ "c"; "b" ] (users stale.Federation.entries)

(* --- shard bounds kept as entries arrive ---

   [site_high_water], the per-site record and degraded counts, the tally
   and the manifest's per-shard [lo]/[hi] are kept on append and set at
   recovery; the oracle is the fold over the shards and archived entries
   they replace.  Schedules grow two sites' time-sorted streams, force
   wholesale rebuilds (a late entry below the high-water mark disagrees
   with the held prefix) and reopen from the devices; each site's archive
   must also hold exactly its fetched stream. *)

type shard_op =
  | Grow of int * int list (* site, time increments of the new entries *)
  | Late of int (* a late entry at the site's first time: rebuild *)
  | Reopen
  | Lose of int (* reopen without the [n mod count]th listed shard device *)

(* [~lose] adds [Lose] steps to the schedules. *)
let gen_shard_ops ~lose =
  let open QCheck2.Gen in
  list_size (int_range 1 14)
    (frequency
       ([ (6, map2 (fun s steps -> Grow (s, steps)) (int_range 0 1)
                  (list_size (int_range 0 8) (int_range 0 7)));
          (1, map (fun s -> Late s) (int_range 0 1));
          (2, return Reopen);
        ]
       @ if lose then [ (2, map (fun n -> Lose n) (int_bound 20)) ] else []))

let print_shard_ops ops =
  String.concat "; "
    (List.map
       (function
         | Grow (s, steps) ->
           Printf.sprintf "Grow(%d,[%s])" s (String.concat "," (List.map string_of_int steps))
         | Late s -> Printf.sprintf "Late %d" s
         | Reopen -> "Reopen"
         | Lose n -> Printf.sprintf "Lose %d" n)
       ops)

let shard_bucket_ms = 10

let shard_site i = if i = 0 then "a" else "b"

(* Run one step on [store] (a reopen replaces it) and the two sites'
   reversed [streams].  Every fetch is archived whole; the result says
   whether that archive step rebuilt the site. *)
let run_shard_op store streams op =
  let archive i =
    (Shard_store.archive_site !store ~site:(shard_site i) (List.rev streams.(i)))
      .Shard_store.rebuilt
  in
  let reopen ~keep =
    Shard_store.sync !store;
    store :=
      fst
        (Shard_store.reopen ~bucket_ms:shard_bucket_ms ~seed:3
           ~manifest:(Shard_store.manifest_device !store)
           ~shards:(List.filter keep (Shard_store.devices !store)) ());
    false
  in
  match op with
  | Grow (i, steps) ->
    List.iter
      (fun step ->
        let last = match streams.(i) with e :: _ -> e.Hdb.Audit_schema.time | [] -> 0 in
        let n = List.length streams.(i) in
        let user = Printf.sprintf "%s%d" (shard_site i) n in
        streams.(i) <- entry ~time:(last + step) ~user () :: streams.(i))
      steps;
    archive i
  | Late i -> (
    match List.rev streams.(i) with
    | [] -> false
    | first :: _ as stream ->
      streams.(i) <- List.rev ({ first with Hdb.Audit_schema.user = "late" } :: stream);
      archive i)
  | Reopen -> reopen ~keep:(fun _ -> true)
  | Lose n -> (
    match Shard_store.devices !store with
    | [] -> reopen ~keep:(fun _ -> true)
    | devices ->
      let lost, _, _ = List.nth devices (n mod List.length devices) in
      reopen ~keep:(fun (name, _, _) -> not (String.equal name lost)))

let bounds_match_fold store =
  let sites = [ "a"; "b" ] in
  let fold_hwm site =
    List.fold_left (fun m e -> max m e.Hdb.Audit_schema.time) (-1)
      (Shard_store.merged_site store ~site)
  in
  let infos = Shard_store.shard_infos store in
  let mine site = List.filter (fun (i : Shard_store.shard_info) -> i.site = site) infos in
  let degraded (i : Shard_store.shard_info) = i.status <> Shard_store.Healthy in
  let fold_records site =
    List.fold_left
      (fun acc (i : Shard_store.shard_info) ->
        match i.status with Shard_store.Tampered _ -> acc | _ -> acc + i.records)
      0 (mine site)
  in
  let fold_tally =
    List.filter_map
      (fun site ->
        match mine site with
        | [] -> None
        | m -> Some (site, (List.length m, List.length (List.filter degraded m))))
      sites
  in
  List.for_all (fun site -> Shard_store.site_high_water store ~site = fold_hwm site) sites
  && List.for_all (fun site -> Shard_store.site_records store ~site = fold_records site) sites
  && List.for_all
       (fun site -> Shard_store.site_degraded store ~site = List.exists degraded (mine site))
       sites
  && Shard_store.tally store = fold_tally
  &&
  (Shard_store.sync store;
   match Durable.Manifest.read (Shard_store.manifest_device store) with
   | Ok (Some m) ->
     List.for_all
       (fun (d : Durable.Manifest.shard) ->
         let i = String.rindex d.name '#' in
         let site = String.sub d.name 0 i in
         let bucket = int_of_string (String.sub d.name (i + 1) (String.length d.name - i - 1)) in
         let held =
           List.filter
             (fun e -> Shard_store.bucket_of store e.Hdb.Audit_schema.time = bucket)
             (Shard_store.merged_site store ~site)
         in
         let lo = match held with [] -> 0 | e :: _ -> e.Hdb.Audit_schema.time in
         let hi = List.fold_left (fun m e -> max m e.Hdb.Audit_schema.time) lo held in
         d.lo = lo && d.hi = hi)
       m.Durable.Manifest.shards
   | _ -> false)

let prop_shard_bounds_match_fold =
  QCheck2.Test.make ~name:"shard high-water and manifest bounds = fold over entries" ~count:200
    ~print:print_shard_ops (gen_shard_ops ~lose:false) (fun ops ->
      let store = ref (Shard_store.create ~bucket_ms:shard_bucket_ms ~seed:3 ()) in
      let streams = [| []; [] |] (* reversed *) in
      List.for_all
        (fun op ->
          ignore (run_shard_op store streams op);
          (* every fetch is archived whole, by append or by rebuild *)
          List.for_all
            (fun i ->
              List.equal Hdb.Audit_schema.equal
                (Shard_store.merged_site !store ~site:(shard_site i))
                (List.rev streams.(i)))
            [ 0; 1 ]
          && bounds_match_fold !store)
        ops)

(* --- the archive's listing order, against a model ---

   [Shard_store.devices] and the manifest [sync] writes list each site's
   shards together, buckets ascending, and the sites in the order each
   was last (re)created: first archived, rebuilt by an archive step, or,
   when a reopen lost every device it had, brought back last as a torn
   placeholder.  The model keeps that site order from the steps alone
   (an archive step's [rebuilt] flag included) and each site's buckets
   from its stream. *)

let prop_listing_order_matches_model =
  QCheck2.Test.make ~name:"archive listing = sites in (re)creation order, buckets ascending"
    ~count:300 ~print:print_shard_ops (gen_shard_ops ~lose:true) (fun ops ->
      let store = ref (Shard_store.create ~bucket_ms:shard_bucket_ms ~seed:3 ()) in
      let streams = [| []; [] |] (* reversed *) in
      let order = ref [] in
      let to_last site = order := List.filter (( <> ) site) !order @ [ site ] in
      let buckets site =
        let i = if String.equal site (shard_site 0) then 0 else 1 in
        List.sort_uniq compare
          (List.map (fun e -> e.Hdb.Audit_schema.time / shard_bucket_ms) streams.(i))
      in
      let listing () =
        List.concat_map
          (fun site -> List.map (fun b -> Printf.sprintf "%s#%d" site b) (buckets site))
          !order
      in
      List.for_all
        (fun op ->
          (* the site a lost device takes with it, judged before the step *)
          let emptied =
            match (op, listing ()) with
            | Lose n, (_ :: _ as names) ->
              let lost = List.nth names (n mod List.length names) in
              let site = String.sub lost 0 (String.rindex lost '#') in
              if List.length (buckets site) = 1 then Some site else None
            | _ -> None
          in
          let rebuilt = run_shard_op store streams op in
          (match op with
          | Grow (i, _) | Late i ->
            let site = shard_site i in
            if streams.(i) <> [] && (rebuilt || not (List.mem site !order)) then to_last site
          | Reopen | Lose _ -> Option.iter to_last emptied);
          let expected = listing () in
          List.map (fun (name, _, _) -> name) (Shard_store.devices !store) = expected
          &&
          (Shard_store.sync !store;
           match Durable.Manifest.read (Shard_store.manifest_device !store) with
           | Ok (Some m) ->
             List.map (fun (d : Durable.Manifest.shard) -> d.name) m.Durable.Manifest.shards
             = expected
           | _ -> false))
        ops)

(* --- the fault matrix --- *)

let matrix_config =
  { Fault.no_faults with
    Fault.p_unavailable = 0.25;
    p_timeout = 0.15;
    p_flaky = 0.25;
    p_corrupt = 0.1;
  }

(* The paper's Table 1 trail, split round-robin across [nsites] sites,
   each behind a fault wrapper seeded from [seed]. *)
let build_matrix_federation ~seed ~nsites ~faulty =
  let sites =
    List.init nsites (fun i -> Site.create ~name:(Printf.sprintf "site-%d" i) ())
  in
  List.iteri
    (fun i e -> Site.ingest_entry (List.nth sites (i mod nsites)) e)
    (Workload.Scenario.table1_entries ());
  let fed = Federation.create ~seed () in
  List.iteri
    (fun i site ->
      if faulty then
        Federation.add_faulty_site fed
          (Fault.wrap ~config:matrix_config ~seed:((seed * 10) + i) site)
      else Federation.add_site fed site)
    sites;
  fed

let health_site_total (s : Health.site_health) =
  s.Health.entries + s.Health.quarantined + s.Health.skipped_entries

let health_fingerprint (h : Health.t) =
  ( h.Health.delivered,
    h.Health.quarantined,
    h.Health.skipped_entries,
    List.map
      (fun (s : Health.site_health) ->
        (s.Health.site, s.Health.entries, s.Health.quarantined, s.Health.skipped_entries))
      h.Health.sites )

(* Invariant: every record a site holds is delivered, quarantined or
   stranded — the report accounts for 100% of input. *)
let assert_accounts_for_all_input fed (h : Health.t) =
  let known =
    List.fold_left
      (fun acc site -> acc + Site.length site + Site.quarantined_count site)
      0 (Federation.sites fed)
  in
  check_int "total = known input" known h.Health.total;
  check_int "delivered + quarantined + stranded = total"
    h.Health.total
    (h.Health.delivered + h.Health.quarantined + h.Health.skipped_entries);
  List.iter
    (fun (s : Health.site_health) ->
      match Federation.site fed s.Health.site with
      | Some site ->
        check_int
          (Printf.sprintf "site %s accounts for its records" s.Health.site)
          (Site.length site + Site.quarantined_count site)
          (health_site_total s)
      | None -> Alcotest.fail "health names an unknown site")
    h.Health.sites

let test_matrix_accounting_and_determinism seed () =
  let run () =
    let fed = build_matrix_federation ~seed ~nsites:3 ~faulty:true in
    let result = Federation.consolidated_result fed in
    assert_accounts_for_all_input fed result.Federation.health;
    (result, fed)
  in
  let r1, _ = run () in
  let r2, _ = run () in
  check_bool "same health, bit for bit" true
    (health_fingerprint r1.Federation.health = health_fingerprint r2.Federation.health);
  check_bool "same entries, bit for bit" true
    (List.for_all2 Hdb.Audit_schema.equal r1.Federation.entries r2.Federation.entries)

(* The convergence oracle: after heal + reprocess, consolidation is
   complete and refinement accepts exactly the fault-free baseline. *)
let test_matrix_convergence seed () =
  let vocab = Workload.Scenario.vocab () in
  let p_ps = Workload.Scenario.policy_store () in
  let epoch entries =
    Prima_core.Refinement.run_epoch ~vocab ~p_ps
      ~p_al:(To_policy.policy_of_entries entries) ()
  in
  let baseline_fed = build_matrix_federation ~seed ~nsites:3 ~faulty:false in
  let baseline = Federation.consolidated baseline_fed in
  let baseline_report = epoch baseline in
  check_int "baseline adopts the Table 1 pattern" 1
    (List.length baseline_report.Prima_core.Refinement.accepted);
  let fed = build_matrix_federation ~seed ~nsites:3 ~faulty:true in
  let degraded = Federation.consolidated_result fed in
  assert_accounts_for_all_input fed degraded.Federation.health;
  (* The matrix seeds are chosen to actually degrade consolidation —
     otherwise this oracle proves nothing. *)
  check_bool "schedule degrades the window" true
    (degraded.Federation.health.Health.completeness < 1.0);
  (* Recovery: heal every site; a clean fetch supersedes transit
     corruption, so consolidation is complete again. *)
  Federation.heal_all fed;
  let recovered = Federation.consolidated_result fed in
  check_bool "complete after recovery" true (Health.complete recovered.Federation.health);
  check_bool "recovered view = fault-free view" true
    (List.for_all2 Hdb.Audit_schema.equal recovered.Federation.entries baseline);
  let recovered_report = epoch recovered.Federation.entries in
  check_bool "same accepted rules as the fault-free run" true
    (List.for_all2 Prima_core.Rule.equal_syntactic
       (List.sort Prima_core.Rule.compare recovered_report.Prima_core.Refinement.accepted)
       (List.sort Prima_core.Rule.compare baseline_report.Prima_core.Refinement.accepted))

(* Ingest-path convergence: a site whose mapping is broken quarantines its
   batch; after the mapping fix and reprocessing, refinement matches the
   run whose mapping was correct from the start. *)
let test_matrix_convergence_through_quarantine () =
  let raws =
    List.map
      (fun e ->
        List.map
          (fun (k, v) ->
            if String.equal k Vocabulary.Audit_attrs.op then
              (k, if String.equal v "1" then "ok" else "nope")
            else (k, v))
          (Hdb.Audit_schema.to_assoc e))
      (Workload.Scenario.table1_entries ())
  in
  let good_mapping =
    Mapping.create
      ~value_synonyms:[ (("op", "ok"), "granted"); (("op", "nope"), "denied") ]
      ()
  in
  let vocab = Workload.Scenario.vocab () in
  let p_ps = Workload.Scenario.policy_store () in
  let epoch fed =
    Prima_core.Refinement.run_epoch ~vocab ~p_ps ~p_al:(Federation.to_policy fed) ()
  in
  (* Baseline: correct mapping from the start. *)
  let clean = Site.create ~mapping:good_mapping ~name:"legacy" () in
  let s = Site.ingest_raw_all clean raws in
  check_int "baseline ingests all" (List.length raws) s.Site.ingested;
  let baseline_report = epoch (Federation.of_sites [ clean ]) in
  (* Degraded: broken mapping quarantines every record... *)
  let broken = Site.create ~name:"legacy" () in
  let s = Site.ingest_raw_all broken raws in
  check_int "all quarantined" (List.length raws) s.Site.quarantined;
  let fed = Federation.of_sites [ broken ] in
  let degraded = Federation.consolidated_result fed in
  check_bool "nothing delivered" true
    (degraded.Federation.health.Health.completeness = 0.0);
  (* ...until the mapping fix lets the quarantine drain. *)
  Site.set_mapping broken good_mapping;
  let s = Site.reprocess_quarantined broken in
  check_int "all reprocessed" (List.length raws) s.Site.ingested;
  let recovered = Federation.consolidated_result fed in
  check_bool "complete after reprocess" true (Health.complete recovered.Federation.health);
  let recovered_report = epoch fed in
  check_bool "same accepted rules as the clean-mapping run" true
    (List.for_all2 Prima_core.Rule.equal_syntactic
       (List.sort Prima_core.Rule.compare recovered_report.Prima_core.Refinement.accepted)
       (List.sort Prima_core.Rule.compare baseline_report.Prima_core.Refinement.accepted))

(* --- suffix fetches against the whole-store walk ---

   [Fault.fetch ?from] skips the corruption draws in one step where none
   can corrupt, and reads only the suffix.  The oracle is the walk it
   replaces ([Test_support.Fetch_reference]): wrapped with the same seed
   and config and driven through the same appends, heals and outages, it
   must fail the same attempts, deliver the same suffix, corrupt the same
   records and leave the clock where the wrapper does, fetch after
   fetch. *)

module Fetch_reference = Test_support.Fetch_reference

type fetch_op =
  | Append of int
  | Fetch of int (* from this many records before the end *)
  | Heal
  | Down
  | Up

let fetch_op_to_string = function
  | Append n -> Printf.sprintf "append %d" n
  | Fetch k -> Printf.sprintf "fetch -%d" k
  | Heal -> "heal"
  | Down -> "down"
  | Up -> "up"

let gen_fault_config =
  let open QCheck2.Gen in
  let* p_unavailable = oneofl [ 0.; 0.; 0.3 ]
  and* p_timeout = oneofl [ 0.; 0.2; 0.5 ]
  and* p_flaky = oneofl [ 0.; 0.3 ]
  and* p_corrupt = oneofl [ 0.; 0.; 0.25 ] in
  return
    { Fault.p_unavailable; p_timeout; p_flaky; p_corrupt; latency = 3; timeout_cost = 50 }

let gen_fetch_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 30)
    (frequency
       [ (3, map (fun n -> Append n) (int_range 0 8));
         (6, map (fun k -> Fetch k) (oneof [ int_bound 10; return max_int ]));
         (1, return Heal);
         (1, return Down);
         (1, return Up);
       ])

let print_fetch_case ((c : Fault.config), seed, ops) =
  Printf.sprintf "unavailable %g timeout %g flaky %g corrupt %g, seed %d: %s" c.p_unavailable
    c.p_timeout c.p_flaky c.p_corrupt seed
    (String.concat "; " (List.map fetch_op_to_string ops))

let same_fetch a b =
  match (a, b) with
  | Ok (x : Fault.fetched), Ok (y : Fault.fetched) ->
    List.equal Hdb.Audit_schema.equal x.delivered y.delivered && x.corrupted = y.corrupted
  | Error e, Error f -> e = f
  | _ -> false

let prop_suffix_fetch_matches_walk =
  QCheck2.Test.make ~name:"Fault.fetch ?from = the whole-store walk" ~count:300
    ~print:print_fetch_case
    QCheck2.Gen.(triple gen_fault_config (int_bound 10_000) gen_fetch_ops)
    (fun (config, seed, ops) ->
      let site = Site.create ~name:"s" () in
      let fault = Fault.wrap ~config ~seed site in
      let reference = Fetch_reference.wrap ~config ~seed site in
      let clock = ref 0 and reference_clock = ref 0 in
      let next_time = ref 0 in
      List.for_all
        (function
          | Append n ->
            Site.ingest_entries site
              (List.init n (fun k ->
                   let time = !next_time + k in
                   entry ~time ~user:(string_of_int time) ()));
            next_time := !next_time + n;
            true
          | Fetch k ->
            let from = if k = max_int then 0 else max 0 (Site.length site - k) in
            let a = Fault.fetch ~from fault ~clock in
            let b = Fetch_reference.fetch ~from reference ~clock:reference_clock in
            same_fetch a b && !clock = !reference_clock
          | Heal ->
            Fault.heal fault;
            Fetch_reference.heal reference;
            true
          | Down ->
            Fault.take_down fault;
            Fetch_reference.take_down reference;
            true
          | Up ->
            Fault.restore fault;
            Fetch_reference.restore reference;
            true)
        ops)

let prop_skip_is_n_draws =
  QCheck2.Test.make ~name:"Splitmix.skip n = n draws" ~count:200
    QCheck2.Gen.(pair int (int_bound 5_000))
    (fun (seed, n) ->
      let skipped = Splitmix.create ~seed and drawn = Splitmix.create ~seed in
      Splitmix.skip skipped n;
      for _ = 1 to n do
        ignore (Splitmix.next_int64 drawn)
      done;
      List.init 4 (fun _ -> Splitmix.next_int64 skipped)
      = List.init 4 (fun _ -> Splitmix.next_int64 drawn))

let matrix_cases =
  List.concat_map
    (fun seed ->
      [ Alcotest.test_case
          (Printf.sprintf "accounting + determinism (seed %d)" seed)
          `Quick
          (test_matrix_accounting_and_determinism seed);
        Alcotest.test_case
          (Printf.sprintf "convergence oracle (seed %d)" seed)
          `Quick (test_matrix_convergence seed);
      ])
    matrix_seeds

let () =
  Alcotest.run "faults"
    [ ( "retry",
        [ Alcotest.test_case "flaky then success" `Quick test_retry_flaky_then_success;
          Alcotest.test_case "exhaustion and deadline" `Quick
            test_retry_exhaustion_and_deadline;
          Alcotest.test_case "deadline boundary is closed" `Quick
            test_retry_deadline_boundary;
          Alcotest.test_case "jitter determinism" `Quick test_retry_jitter_determinism;
        ] );
      ( "breaker",
        [ Alcotest.test_case "transitions through the federation" `Quick
            test_breaker_transitions;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_halfopen_failure_reopens;
          Alcotest.test_case "half-open admits exactly one probe" `Quick
            test_breaker_halfopen_single_probe;
        ] );
      ( "archive",
        [ Alcotest.test_case "stale serving from shards" `Quick test_archive_stale_serving;
          Alcotest.test_case "torn manifest rebuilt from scans" `Quick
            test_archive_manifest_rebuild;
          Alcotest.test_case "tampered shard quarantined per-shard" `Quick
            test_archive_tampered_shard_quarantined;
          Alcotest.test_case "lost shard placeholder until refetch" `Quick
            test_archive_lost_shard_placeholder;
          Alcotest.test_case "rebuilt shard reads healthy" `Quick
            test_rebuilt_shard_reads_healthy;
          Alcotest.test_case "stale torn shard stays degraded" `Quick
            test_stale_torn_shard_stays_degraded;
          Alcotest.test_case "repeated timestamp appends, no rebuild" `Quick
            test_archive_repeated_timestamp;
          Alcotest.test_case "fetched: whole, suffix and stale rows" `Quick
            test_health_fetched;
          Alcotest.test_case "late suffix rebuilds" `Quick test_late_suffix_rebuilds;
          Alcotest.test_case "swapped archive rebuilds" `Quick test_swapped_archive_rebuilds;
          Alcotest.test_case "crash-replaced record rebuilds" `Quick
            test_crash_replaced_record_rebuilds;
          QCheck_alcotest.to_alcotest ~long:false prop_shard_bounds_match_fold;
          QCheck_alcotest.to_alcotest ~long:false prop_listing_order_matches_model;
        ] );
      ( "suffix-fetch",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_suffix_fetch_matches_walk; prop_skip_is_n_draws ] );
      ("fault-matrix", matrix_cases);
      ( "quarantine-convergence",
        [ Alcotest.test_case "mapping fix converges" `Quick
            test_matrix_convergence_through_quarantine;
        ] );
    ]
