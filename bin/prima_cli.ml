(* prima: command-line front end.

     prima paper                       -- replay the paper's running example
     prima simulate [options]          -- synthetic hospital + refinement
     prima coverage --policy F --audit F [--bag]
     prima refine   --policy F --audit F [options]
     prima mine     --audit F [--min-support N] [--min-confidence X]
     prima federation-health --audit F [--sites N --seed N ...]
     prima recover  --wal F [--snapshot F --kind audit|quarantine|site --site NAME --out F]
     prima verify   --wal F-or-DIR [--snapshot F]   (read-only; exit 1 on tampering)

   File formats:
   - policy files: one rule per line, "data:purpose:authorized"; '#' comments;
   - audit files: CSV with header time,op,user,data,purpose,authorized,status
     (op/status numeric as in Section 4.2). *)

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let vocab_of_name = function
  | `Figure1 -> Vocabulary.Samples.figure1 ()
  | `Hospital -> Vocabulary.Samples.hospital ()

let parse_policy_file path : Prima_core.Policy.t =
  Prima_core.Policy_file.of_string (read_file path)

let parse_audit_file path : Hdb.Audit_schema.entry list =
  Hdb.Audit_csv.of_string (read_file path)

(* --- paper --- *)

let run_paper () =
  let vocab = Workload.Scenario.vocab () in
  let attrs = Vocabulary.Audit_attrs.pattern in
  let p_ps = Workload.Scenario.policy_store () in
  let fig3 =
    Prima_core.Coverage.aligned ~bag:false vocab ~attrs ~p_x:p_ps
      ~p_y:(Workload.Scenario.figure3_audit_policy ())
  in
  Fmt.pr "Figure 3 system : %a@." Prima_core.Coverage.pp_stats fig3;
  let p_al = Workload.Scenario.table1_audit_policy () in
  let report = Prima_core.Refinement.run_epoch ~vocab ~p_ps ~p_al () in
  Fmt.pr "Table 1 snapshot: %a@." Prima_core.Coverage.pp_stats
    report.Prima_core.Refinement.coverage_before;
  Fmt.pr "@.%a" Prima_core.Report.pp_epoch report;
  0

(* --- coverage --- *)

let run_coverage vocab_name policy_path audit_path bag =
  let vocab = vocab_of_name vocab_name in
  let p_ps = parse_policy_file policy_path in
  let p_al = Audit_mgmt.To_policy.policy_of_entries (parse_audit_file audit_path) in
  let stats =
    Prima_core.Coverage.aligned ~bag vocab ~attrs:Vocabulary.Audit_attrs.pattern ~p_x:p_ps
      ~p_y:p_al
  in
  Fmt.pr "%a@." Prima_core.Coverage.pp_stats stats;
  if stats.Prima_core.Coverage.uncovered <> [] then begin
    Fmt.pr "uncovered:@.";
    List.iter
      (fun r -> Fmt.pr "  %a@." Prima_core.Report.pp_pattern r)
      stats.Prima_core.Coverage.uncovered
  end;
  0

(* --- refine --- *)

let run_refine vocab_name policy_path audit_path min_frequency use_mining max_rows
    max_tuples max_ticks max_wall_ms =
  let vocab = vocab_of_name vocab_name in
  let p_ps = parse_policy_file policy_path in
  let p_al = Audit_mgmt.To_policy.policy_of_entries (parse_audit_file audit_path) in
  let backend =
    if use_mining then
      Prima_core.Extract_patterns.Mining
        { Prima_core.Extract_patterns.default_mining with
          Prima_core.Extract_patterns.min_support = min_frequency;
        }
    else
      Prima_core.Extract_patterns.Sql
        { Prima_core.Data_analysis.default_config with
          Prima_core.Data_analysis.min_frequency;
        }
  in
  let limits =
    match max_rows, max_tuples, max_ticks, max_wall_ms with
    | None, None, None, None -> None
    | rows, tuples, ticks, wall_ms ->
      Some (Relational.Budget.limits ?rows ?tuples ?ticks ?wall_ms ())
  in
  let config = { Prima_core.Refinement.default_config with Prima_core.Refinement.backend } in
  let report = Prima_core.Refinement.run_epoch ~config ?limits ~vocab ~p_ps ~p_al () in
  Prima_core.Report.pp_epoch Fmt.stdout report;
  0

(* --- mine --- *)

let run_mine audit_path min_support min_confidence =
  let entries = parse_audit_file audit_path in
  let practice =
    Prima_core.Filter.run (Audit_mgmt.To_policy.policy_of_entries entries)
  in
  Fmt.pr "practice entries: %d@." (Prima_core.Policy.cardinality practice);
  let interner, rules =
    Prima_core.Extract_patterns.correlations ~min_support ~min_confidence practice
  in
  Fmt.pr "association rules (support >= %d, confidence >= %.2f):@." min_support
    min_confidence;
  List.iter (fun r -> Fmt.pr "  %a@." (Mining.Assoc_rules.pp interner) r) rules;
  0

(* --- simulate --- *)

let run_simulate seed accesses epoch_size violation_rate acceptance_name =
  let config =
    { (Workload.Hospital.default_config ~seed ()) with
      Workload.Hospital.total_accesses = accesses;
      epoch_size;
      violation_rate;
    }
  in
  let vocab = config.Workload.Hospital.vocab in
  let acceptance =
    match acceptance_name with
    | "oracle" -> Prima_core.Refinement.Oracle (Workload.Generator.oracle config)
    | "accept-all" -> Prima_core.Refinement.Accept_all
    | "reject-all" -> Prima_core.Refinement.Reject_all
    | name -> Fmt.failwith "unknown acceptance %S" name
  in
  let ref_config = { Prima_core.Refinement.default_config with acceptance } in
  let trail = Workload.Generator.generate config in
  let batches =
    List.map
      (fun b -> Audit_mgmt.To_policy.policy_of_entries (Workload.Generator.entries b))
      (Workload.Generator.epochs config trail)
  in
  let reports, final =
    Prima_core.Refinement.run_epochs ~config:ref_config ~vocab
      ~p_ps:(Workload.Hospital.policy_store config) ~batches ()
  in
  List.iteri
    (fun i r ->
      Fmt.pr "epoch %2d: %a -> %a  (+%d rules)@." (i + 1) Prima_core.Coverage.pp_stats
        r.Prima_core.Refinement.coverage_before Prima_core.Coverage.pp_stats
        r.Prima_core.Refinement.coverage_after
        (List.length r.Prima_core.Refinement.accepted))
    reports;
  let covered = Workload.Generator.practices_covered config final in
  Fmt.pr "informal practices documented: %d/%d@." (List.length covered)
    (List.length config.Workload.Hospital.informal);
  0

(* --- generate --- *)

let run_generate seed accesses audit_out policy_out wal_out =
  let config =
    { (Workload.Hospital.default_config ~seed ()) with
      Workload.Hospital.total_accesses = accesses;
    }
  in
  let trail = Workload.Generator.generate config in
  let entries = Workload.Generator.entries trail in
  Hdb.Audit_csv.save audit_out entries;
  Prima_core.Policy_file.save policy_out (Workload.Hospital.policy_store config);
  Fmt.pr "wrote %d audit entries to %s and %d policy rules to %s@."
    (List.length trail) audit_out
    (List.length config.Workload.Hospital.documented)
    policy_out;
  (match wal_out with
  | None -> ()
  | Some path ->
    let log = Durable.Log.create ~seed () in
    ignore (Durable.Log.open_or_recover log);
    List.iter (fun e -> ignore (Durable.Log.append log (Hdb.Audit_schema.to_wire e))) entries;
    Durable.Log.sync log;
    Durable.Device.save (Durable.Log.wal_device log) path;
    Fmt.pr "wrote the same trail as a WAL to %s (next LSN %d)@." path
      (Durable.Log.next_lsn log);
    Fmt.pr "try:  prima recover --wal %s --out recovered.csv@." path);
  Fmt.pr "try:  prima refine --vocab hospital --policy %s --audit %s@." policy_out audit_out;
  0

(* --- recover --- *)

(* Offline inspection of durable state: load the WAL (and snapshot, if
   any), run recovery, and print the report — what verified, what was
   dropped, where appends would resume.  Decoding happens above the
   durable layer: --kind picks the payload codec. *)
let run_recover wal_path snapshot_path kind site_name out =
  let wal = Durable.Device.load wal_path in
  let snapshot =
    match snapshot_path with
    | Some path -> Durable.Device.load path
    | None -> Durable.Device.create ()
  in
  let log = Durable.Log.of_devices ~wal ~snapshot in
  match kind with
  | "site" ->
    (* Crash-local site recovery: replay the per-site op WAL — entries,
       exactly-once ledger, in-flight quarantine, sequence floor — and
       report whether the feed still owes a replay of the lost suffix. *)
    let name =
      match site_name with
      | Some n -> n
      | None -> Filename.remove_extension (Filename.basename wal_path)
    in
    let site, recovery, undecodable = Audit_mgmt.Site.open_durable ~name log in
    Fmt.pr "%a" Durable.Recovery.pp recovery;
    if undecodable > 0 then
      Fmt.pr "warning: %d CRC-valid record(s) did not decode as site ops@." undecodable;
    Fmt.pr "site %s: %d entries, %d quarantined, next raw seq %d@." name
      (Audit_mgmt.Site.length site)
      (Audit_mgmt.Site.quarantined_count site)
      (Audit_mgmt.Site.next_seq site);
    (match out with
    | Some path ->
      Hdb.Audit_csv.save_store path (Audit_mgmt.Site.store site);
      Fmt.pr "wrote %s@." path
    | None -> ());
    if Audit_mgmt.Site.durably_degraded site then begin
      Fmt.pr
        "DEGRADED: recovery was lossy or tampered — replay the feed from raw seq %d, \
         then acknowledge; until then coverage over this site is a lower bound@."
        (Audit_mgmt.Site.next_seq site);
      1
    end
    else 0
  | "audit" ->
    let store, recovery, undecodable = Hdb.Audit_store.open_durable log in
    Fmt.pr "%a" Durable.Recovery.pp recovery;
    if undecodable > 0 then
      Fmt.pr "warning: %d CRC-valid records did not decode as audit entries@." undecodable;
    Fmt.pr "recovered %d audit entries (next LSN %d)@." (Hdb.Audit_store.length store)
      (Hdb.Audit_store.lsn store);
    (match out with
    | Some path ->
      Hdb.Audit_csv.save_store path store;
      Fmt.pr "wrote %s@." path
    | None -> ());
    0
  | "quarantine" ->
    let q, recovery, undecodable = Audit_mgmt.Quarantine.open_durable log in
    Fmt.pr "%a" Durable.Recovery.pp recovery;
    if undecodable > 0 then
      Fmt.pr "warning: %d CRC-valid records did not decode as quarantine ops@." undecodable;
    Fmt.pr "%a" Audit_mgmt.Quarantine.pp q;
    0
  | other ->
    Fmt.epr "unknown --kind %S (use audit, quarantine or site)@." other;
    2

(* --- verify --- *)

(* Offline chain verification: strictly read-only — unlike [recover] it
   adopts nothing, truncates nothing and reseals nothing, so the evidence
   stays on disk and the command can run twice with the same verdict.
   Exits 1 on a tamper verdict so scripts can gate on it. *)
let verify_one wal_path snapshot_path =
  let wal = Durable.Device.load wal_path in
  let snapshot =
    match snapshot_path with
    | Some path -> Durable.Device.load path
    | None -> Durable.Device.create ()
  in
  let r = Durable.Recovery.run ~wal ~snapshot () in
  Fmt.pr "verdict: %s@." (Durable.Recovery.verdict_to_string r.Durable.Recovery.verdict);
  Fmt.pr
    "accepted prefix: %d record(s) (%d from the snapshot, %d from the WAL; %d verified WAL \
     bytes)@."
    (List.length r.Durable.Recovery.entries)
    r.Durable.Recovery.snapshot_entries r.Durable.Recovery.wal_entries
    r.Durable.Recovery.wal_verified_bytes;
  Fmt.pr "chain head: %s@." (Durable.Chain.to_hex r.Durable.Recovery.chain_head);
  (match r.Durable.Recovery.tail_error with
  | Some why -> Fmt.pr "scan stopped: %s@." why
  | None -> ());
  (match r.Durable.Recovery.snapshot_error with
  | Some why -> Fmt.pr "snapshot: %s@." why
  | None -> ());
  match r.Durable.Recovery.verdict with
  | Durable.Recovery.Tamper_detected { offset } ->
    Fmt.pr
      "first divergence: offset %d — bytes from there were durable and verified once, and \
       no longer verify@."
      offset;
    1
  | Durable.Recovery.Torn_tail ->
    Fmt.pr "benign torn tail: %d unverifiable byte(s) dropped@."
      r.Durable.Recovery.dropped_tail;
    0
  | Durable.Recovery.Verified ->
    Fmt.pr "log verifies end-to-end@.";
    0

(* A directory of per-site WALs (a federation's durable state) verifies as
   a unit: each [*.wal] inside is checked read-only, picking up a sibling
   [<name>.snapshot] when present, and the worst per-site verdict is the
   exit code — one tampered site fails the whole directory. *)
let run_verify wal_path snapshot_path =
  if Sys.is_directory wal_path then begin
    let wals =
      Sys.readdir wal_path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".wal")
      |> List.sort String.compare
    in
    if wals = [] then begin
      Fmt.epr "no *.wal files in %s@." wal_path;
      2
    end
    else begin
      let worst = ref 0 in
      List.iter
        (fun f ->
          let wal = Filename.concat wal_path f in
          let snap = Filename.concat wal_path (Filename.remove_extension f ^ ".snapshot") in
          let snap = if Sys.file_exists snap then Some snap else None in
          Fmt.pr "--- %s ---@." f;
          worst := max !worst (verify_one wal snap))
        wals;
      Fmt.pr "@.%d per-site WAL(s) verified: %s@." (List.length wals)
        (if !worst = 0 then "all chains intact" else "TAMPERING DETECTED");
      !worst
    end
  end
  else verify_one wal_path snapshot_path

(* --- analyze --- *)

let run_analyze vocab_name policy_path =
  let vocab = vocab_of_name vocab_name in
  let p_ps = parse_policy_file policy_path in
  let redundant = Prima_core.Analysis.redundant_rules vocab p_ps in
  if redundant <> [] then begin
    Fmt.pr "redundant rules:@.";
    List.iter (fun r -> Fmt.pr "  %a@." Prima_core.Rule.pp r) redundant
  end;
  let generalized, summary = Prima_core.Analysis.summarize_generalization vocab p_ps in
  Fmt.pr "rules: %d -> %d (range of %d ground rules preserved: %b)@."
    summary.Prima_core.Analysis.rules_before summary.Prima_core.Analysis.rules_after
    summary.Prima_core.Analysis.range_cardinality
    summary.Prima_core.Analysis.range_preserved;
  Fmt.pr "%a" Prima_core.Policy.pp generalized;
  0

(* --- faulty federations (trend, federation-health) --- *)

(* Split an audit trail round-robin across N sites, each entry entering
   its site through [ingest], and wrap every site in a seeded fault
   injector.  The same seed replays the same failure schedule, so every
   report printed from it is reproducible evidence. *)
let build_faulty_federation ~ingest ~entries ~nsites ~seed ~p_unavailable ~p_timeout ~p_flaky
    ~p_corrupt =
  let nsites = max 1 nsites in
  let sites =
    List.init nsites (fun i ->
        Audit_mgmt.Site.create ~name:(Printf.sprintf "site-%d" (i + 1)) ())
  in
  List.iteri (fun i e -> ingest (List.nth sites (i mod nsites)) e) entries;
  let fed = Audit_mgmt.Federation.create ~seed () in
  let config =
    { Audit_mgmt.Fault.no_faults with
      Audit_mgmt.Fault.p_unavailable;
      p_timeout;
      p_flaky;
      p_corrupt;
    }
  in
  List.iteri
    (fun i site ->
      Audit_mgmt.Federation.add_faulty_site fed
        (Audit_mgmt.Fault.wrap ~config ~seed:(seed + i + 1) site))
    sites;
  fed

(* --- trend --- *)

(* With --sites N, the trail is consolidated through a fault-injected
   federation first, so the trend carries the health report — per-site
   breaker state and trip counts included — and a partial window is
   labelled as such. *)
let run_trend vocab_name policy_path audit_path window nsites seed p_unavailable p_timeout
    p_flaky p_corrupt =
  let vocab = vocab_of_name vocab_name in
  let p_ps = parse_policy_file policy_path in
  let entries = parse_audit_file audit_path in
  let p_al =
    if nsites <= 0 then Audit_mgmt.To_policy.policy_of_entries entries
    else begin
      let fed =
        build_faulty_federation ~ingest:Audit_mgmt.Site.ingest_entry ~entries ~nsites ~seed
          ~p_unavailable ~p_timeout ~p_flaky ~p_corrupt
      in
      let result = Audit_mgmt.Federation.consolidated_result fed in
      let health = result.Audit_mgmt.Federation.health in
      Fmt.pr "%a@." Audit_mgmt.Health.pp health;
      if health.Audit_mgmt.Health.completeness < 1.0 then
        Fmt.pr "note: this trend is computed from a partial window (completeness %.1f%%)@."
          (100. *. health.Audit_mgmt.Health.completeness);
      Audit_mgmt.To_policy.policy_of_entries result.Audit_mgmt.Federation.entries
    end
  in
  let points = Prima_core.Trend.compute vocab ~p_ps ~p_al ~window () in
  Prima_core.Trend.pp Fmt.stdout points;
  if Prima_core.Trend.drifting points then
    Fmt.pr "@.warning: coverage is drifting; a refinement run is due@.";
  0

(* --- federation-health --- *)

(* "NAME=CAP[:REFILL[:WEIGHT]]" -> (name, class_config) with a rows
   quota; refill defaults to the capacity, weight to 1. *)
let parse_class_spec s =
  let fail () =
    Fmt.epr "bad --class %S (expected NAME=CAP[:REFILL[:WEIGHT]])@." s;
    exit 2
  in
  match String.index_opt s '=' with
  | None -> fail ()
  | Some eq ->
    let name = String.sub s 0 eq in
    let rest = String.sub s (eq + 1) (String.length s - eq - 1) in
    if name = "" then fail ();
    (match String.split_on_char ':' rest with
    | parts when List.exists (fun p -> int_of_string_opt p = None) parts -> fail ()
    | [ cap ] ->
      (name, Audit_mgmt.Admission.(class_config ~rows:(quota ~capacity:(int_of_string cap) ()) ()))
    | [ cap; refill ] ->
      ( name,
        Audit_mgmt.Admission.(
          class_config
            ~rows:(quota ~capacity:(int_of_string cap) ~refill_per_s:(int_of_string refill) ())
            ()) )
    | [ cap; refill; weight ] ->
      ( name,
        Audit_mgmt.Admission.(
          class_config ~weight:(int_of_string weight)
            ~rows:(quota ~capacity:(int_of_string cap) ~refill_per_s:(int_of_string refill) ())
            ()) )
    | _ -> fail ())

(* "USER=CLASS" -> (tenant, class name). *)
let parse_tenant_spec s =
  match String.index_opt s '=' with
  | Some eq when eq > 0 && eq < String.length s - 1 ->
    (String.sub s 0 eq, String.sub s (eq + 1) (String.length s - eq - 1))
  | _ ->
    Fmt.epr "bad --tenant %S (expected USER=CLASS)@." s;
    exit 2

let run_federation_health audit_path nsites seed p_unavailable p_timeout p_flaky p_corrupt
    archive heal class_specs tenant_specs =
  let entries = parse_audit_file audit_path in
  if class_specs = [] && tenant_specs <> [] then begin
    Fmt.epr "--tenant requires at least one --class@.";
    exit 2
  end;
  let build ingest =
    build_faulty_federation ~ingest ~entries ~nsites ~seed ~p_unavailable ~p_timeout ~p_flaky
      ~p_corrupt
  in
  let fed, shed =
    if class_specs = [] then (build Audit_mgmt.Site.ingest_entry, 0)
    else begin
      let classes = List.map parse_class_spec class_specs in
      let tenants = List.map parse_tenant_spec tenant_specs in
      List.iter
        (fun (_, cls) ->
          if not (List.mem_assoc cls classes) && cls <> "standard" then begin
            Fmt.epr "--tenant maps to unknown class %S@." cls;
            exit 2
          end)
        tenants;
      let adm = Audit_mgmt.Admission.create ~now:0 classes in
      List.iter (fun (tenant, cls) -> Audit_mgmt.Admission.assign adm ~tenant cls) tenants;
      (* Every entry enters its site through the tenant gate (tenant = the
         entry's user), the trail's own logical timestamps driving the
         refill clock.  Shed entries never reach a site, so nothing
         downstream counts them: the health report's completeness covers
         only the admitted entries, and what admission dropped is said
         here. *)
      let admitted = ref 0 and shed = ref 0 and last_reject = ref None and clock = ref 0 in
      let fed =
        build (fun site e ->
            clock := max !clock e.Hdb.Audit_schema.time;
            let principal = Audit_mgmt.Admission.principal ~tenant:e.Hdb.Audit_schema.user () in
            match
              Audit_mgmt.Site.ingest_entries_admitted adm site ~now:!clock ~principal [ e ]
            with
            | Ok n -> admitted := !admitted + n
            | Error r ->
              incr shed;
              last_reject := Some r)
      in
      Audit_mgmt.Federation.set_admission fed (Some adm);
      let shed = !shed in
      Fmt.pr "admission: %d/%d entries admitted, %d shed@." !admitted (List.length entries) shed;
      (match !last_reject with
      | Some r when shed > 0 ->
        Fmt.pr "  last shed: %s@." (Audit_mgmt.Admission.rejection_to_string r);
        Fmt.pr
          "  the %d shed entries never reached a site: every reading below, healed or not, \
           is a lower bound on the trail@."
          shed
      | _ -> ());
      (fed, shed)
    end
  in
  let archive_store =
    if archive then begin
      let store = Audit_mgmt.Shard_store.create ~seed:(seed + 97) () in
      Audit_mgmt.Federation.attach_archive fed store;
      Some store
    end
    else None
  in
  let result = Audit_mgmt.Federation.consolidated_result fed in
  Fmt.pr "%a" Audit_mgmt.Health.pp result.Audit_mgmt.Federation.health;
  (match archive_store with
  | Some store -> Fmt.pr "%a" Audit_mgmt.Shard_store.pp store
  | None -> ());
  let q = Audit_mgmt.Federation.transit_quarantine fed in
  if Audit_mgmt.Quarantine.length q > 0 then Fmt.pr "%a" Audit_mgmt.Quarantine.pp q;
  if heal then begin
    Audit_mgmt.Federation.heal_all fed;
    let recovered = Audit_mgmt.Federation.consolidated_result fed in
    Fmt.pr "@.after heal:@.%a" Audit_mgmt.Health.pp
      recovered.Audit_mgmt.Federation.health
  end;
  let completeness = result.Audit_mgmt.Federation.health.Audit_mgmt.Health.completeness in
  if completeness < 1.0 || shed > 0 then
    Fmt.pr
      "@.note: coverage computed from this window is a LOWER BOUND (completeness \
       %.1f%%%s); do not prune or auto-accept patterns from it@."
      (100. *. completeness)
      (if shed = 0 then ""
       else Printf.sprintf " of the admitted entries, %d more shed at admission" shed);
  0

(* --- cmdliner wiring --- *)

open Cmdliner

let vocab_arg =
  Arg.(value & opt (enum [ ("figure1", `Figure1); ("hospital", `Hospital) ]) `Figure1
       & info [ "vocab" ] ~docv:"NAME" ~doc:"Vocabulary: figure1 or hospital.")

let policy_arg =
  Arg.(required & opt (some file) None & info [ "policy" ] ~docv:"FILE"
         ~doc:"Policy store file (data:purpose:authorized per line).")

let audit_arg =
  Arg.(required & opt (some file) None & info [ "audit" ] ~docv:"FILE"
         ~doc:"Audit trail CSV (time,op,user,data,purpose,authorized,status).")

let paper_cmd =
  Cmd.v (Cmd.info "paper" ~doc:"Replay the paper's running example")
    Term.(const run_paper $ const ())

let coverage_cmd =
  let bag =
    Arg.(value & flag & info [ "bag" ] ~doc:"Count each audit entry (Section 5 accounting).")
  in
  Cmd.v (Cmd.info "coverage" ~doc:"ComputeCoverage over a policy store and an audit trail")
    Term.(const run_coverage $ vocab_arg $ policy_arg $ audit_arg $ bag)

let refine_cmd =
  let min_frequency =
    Arg.(value & opt int 5 & info [ "f"; "min-frequency" ] ~docv:"N"
           ~doc:"Threshold frequency f of Algorithm 4.")
  in
  let mining =
    Arg.(value & flag & info [ "mining" ] ~doc:"Use the Apriori backend instead of SQL.")
  in
  let max_rows =
    Arg.(value & opt (some int) None & info [ "max-rows" ] ~docv:"N"
           ~doc:"Budget: maximum result rows of the analysis query.")
  in
  let max_tuples =
    Arg.(value & opt (some int) None & info [ "max-tuples" ] ~docv:"N"
           ~doc:"Budget: maximum intermediate tuples the analysis query may materialise.")
  in
  let max_ticks =
    Arg.(value & opt (some int) None & info [ "max-ticks" ] ~docv:"N"
           ~doc:"Budget: simulated-time deadline in executor ticks.")
  in
  let max_wall_ms =
    Arg.(value & opt (some int) None & info [ "max-wall-ms" ] ~docv:"MS"
           ~doc:"Budget: wall-clock deadline in milliseconds for the analysis query.")
  in
  Cmd.v (Cmd.info "refine" ~doc:"Run the Refinement pipeline (Algorithms 2-6)")
    Term.(const run_refine $ vocab_arg $ policy_arg $ audit_arg $ min_frequency $ mining
          $ max_rows $ max_tuples $ max_ticks $ max_wall_ms)

let mine_cmd =
  let min_support =
    Arg.(value & opt int 5 & info [ "min-support" ] ~docv:"N" ~doc:"Absolute support.")
  in
  let min_confidence =
    Arg.(value & opt float 0.8 & info [ "min-confidence" ] ~docv:"X" ~doc:"Confidence.")
  in
  Cmd.v (Cmd.info "mine" ~doc:"Mine association rules from the practice entries")
    Term.(const run_mine $ audit_arg $ min_support $ min_confidence)

let simulate_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let accesses =
    Arg.(value & opt int 2000 & info [ "accesses" ] ~docv:"N" ~doc:"Total accesses.")
  in
  let epoch =
    Arg.(value & opt int 250 & info [ "epoch-size" ] ~docv:"N" ~doc:"Accesses per epoch.")
  in
  let violations =
    Arg.(value & opt float 0.02 & info [ "violation-rate" ] ~docv:"X"
           ~doc:"Fraction of rogue accesses.")
  in
  let acceptance =
    Arg.(value & opt string "oracle" & info [ "acceptance" ] ~docv:"MODE"
           ~doc:"oracle, accept-all or reject-all.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Synthetic hospital with epoch-wise refinement")
    Term.(const run_simulate $ seed $ accesses $ epoch $ violations $ acceptance)

let generate_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let accesses =
    Arg.(value & opt int 2000 & info [ "accesses" ] ~docv:"N" ~doc:"Total accesses.")
  in
  let audit_out =
    Arg.(value & opt string "audit.csv" & info [ "audit-out" ] ~docv:"FILE"
           ~doc:"Audit CSV output path.")
  in
  let policy_out =
    Arg.(value & opt string "policy.txt" & info [ "policy-out" ] ~docv:"FILE"
           ~doc:"Policy file output path.")
  in
  let wal_out =
    Arg.(value & opt (some string) None & info [ "wal-out" ] ~docv:"FILE"
           ~doc:"Also write the trail as a checksummed write-ahead log.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Write a synthetic hospital audit trail and policy to disk")
    Term.(const run_generate $ seed $ accesses $ audit_out $ policy_out $ wal_out)

let recover_cmd =
  let wal =
    Arg.(required & opt (some file) None & info [ "wal" ] ~docv:"FILE"
           ~doc:"Write-ahead log file to recover.")
  in
  let snapshot =
    Arg.(value & opt (some file) None & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Companion snapshot image, if one was checkpointed.")
  in
  let kind =
    Arg.(value & opt string "audit" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Payload codec: audit, quarantine, or site (a federation member's per-site \
                 op WAL — entries, exactly-once ledger, in-flight quarantine).")
  in
  let site =
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"NAME"
           ~doc:"Site name for --kind site; defaults to the WAL file's basename.  Implies \
                 --kind site is the intended codec.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Export the recovered audit entries as CSV (audit and site kinds).")
  in
  (* --site alone is enough to select the site codec *)
  let kind =
    Term.(const (fun kind site -> match site with Some _ -> "site" | None -> kind)
          $ kind $ site)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Verify a WAL (+ snapshot), print the recovery report and the surviving state; \
             exits 1 when a site recovery is left durably degraded")
    Term.(const run_recover $ wal $ snapshot $ kind $ site $ out)

let verify_cmd =
  let wal =
    Arg.(required & opt (some file) None & info [ "wal" ] ~docv:"FILE-or-DIR"
           ~doc:"Write-ahead log file to verify, or a directory of per-site *.wal files \
                 (sibling <name>.snapshot images are picked up automatically).")
  in
  let snapshot =
    Arg.(value & opt (some file) None & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Companion snapshot image, if one was checkpointed (single-file mode).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Offline tamper check of a WAL (+ snapshot) or a directory of per-site WALs: \
             hash-chain verification without adopting or rewriting anything; exits 1 on \
             a tamper verdict")
    Term.(const run_verify $ wal $ snapshot)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Redundancy and generalization analysis of a policy store")
    Term.(const run_analyze $ vocab_arg $ policy_arg)

(* Fault-schedule options shared by every command that builds a
   fault-injected federation. *)
let fault_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Fault-schedule seed.")

let unavailable_arg =
  Arg.(value & opt float 0.2 & info [ "unavailable" ] ~docv:"X"
         ~doc:"Probability a site is down for the whole run.")

let timeout_arg =
  Arg.(value & opt float 0.1 & info [ "timeout" ] ~docv:"X"
         ~doc:"Per-attempt probability of a timeout.")

let flaky_arg =
  Arg.(value & opt float 0.2 & info [ "flaky" ] ~docv:"X"
         ~doc:"Per-attempt probability of a transient failure.")

let corrupt_arg =
  Arg.(value & opt float 0.05 & info [ "corrupt" ] ~docv:"X"
         ~doc:"Per-record probability of corruption in transit.")

let trend_cmd =
  let window =
    Arg.(value & opt int 100 & info [ "window" ] ~docv:"N" ~doc:"Window size in time ticks.")
  in
  let sites =
    Arg.(value & opt int 0 & info [ "sites" ] ~docv:"N"
           ~doc:"Consolidate through N fault-injected sites first and print their health \
                 (0: read the trail directly).")
  in
  Cmd.v (Cmd.info "trend" ~doc:"Windowed coverage trend of an audit trail")
    Term.(const run_trend $ vocab_arg $ policy_arg $ audit_arg $ window $ sites
          $ fault_seed_arg $ unavailable_arg $ timeout_arg $ flaky_arg $ corrupt_arg)

let federation_health_cmd =
  let sites =
    Arg.(value & opt int 3 & info [ "sites" ] ~docv:"N"
           ~doc:"Number of sites to spread the trail across.")
  in
  let heal =
    Arg.(value & flag & info [ "heal" ] ~doc:"Also show the report after healing all sites.")
  in
  let archive =
    Arg.(value & flag & info [ "archive" ]
           ~doc:"Attach a sharded durable archive: successful fetches are archived per \
                 (site, time-range) shard, dark sites are served stale from it, and the \
                 per-site shard columns are populated in the report.")
  in
  let classes =
    Arg.(value & opt_all string [] & info [ "class" ] ~docv:"NAME=CAP[:REFILL[:WEIGHT]]"
           ~doc:"Register a budget class (repeatable): a rows token bucket of CAP tokens \
                 refilled at REFILL/s (default CAP) with fair-share WEIGHT (default 1).  \
                 With at least one class, the trail ingests through the tenant admission \
                 gate and the report gains per-class admitted/brownout/shed columns.")
  in
  let tenants =
    Arg.(value & opt_all string [] & info [ "tenant" ] ~docv:"USER=CLASS"
           ~doc:"Map an audit-trail user to a budget class (repeatable).  Unmapped users \
                 fall into the default \"standard\" class.")
  in
  Cmd.v
    (Cmd.info "federation-health"
       ~doc:"Consolidate a trail across fault-injected sites and print the health report \
             (per-site breaker trips; per-class admission counters with --class)")
    Term.(const run_federation_health $ audit_arg $ sites $ fault_seed_arg $ unavailable_arg
          $ timeout_arg $ flaky_arg $ corrupt_arg $ archive $ heal $ classes $ tenants)

(* One seeded chaos schedule through the whole system, checked against the
   model oracle; exits non-zero on a violation, printing the step-by-step
   fault log and the violation trace.  --replay re-runs a serialized repro
   file instead (exit 1 names the violated invariant and step); --shrink
   delta-debugs a failing run to a 1-minimal repro and optionally saves
   it. *)
let run_chaos seed steps sites verbose defect replay_file do_shrink repro_out =
  let trace = if verbose then Some (fun line -> Fmt.pr "%s@." line) else None in
  let defect =
    match defect with
    | None -> None
    | Some s -> (
      match Chaos.Harness.defect_of_string s with
      | Some d -> Some d
      | None ->
        Fmt.epr "unknown defect %S (try \"eat-entry 5\", \"drop-replay\", \"stale-vocab\")@." s;
        exit 2)
  in
  let shrink_and_save repro =
    let mini, stats = Chaos.Shrink.shrink repro in
    Fmt.pr "shrunk %d -> %d action(s) in %d candidate run(s), %d round(s)@."
      stats.Chaos.Shrink.original stats.Chaos.Shrink.minimal stats.Chaos.Shrink.candidates
      stats.Chaos.Shrink.rounds;
    Fmt.pr "@.--- minimal repro ---@.%s" (Chaos.Shrink.to_string mini);
    match repro_out with
    | None -> ()
    | Some path ->
      Chaos.Shrink.save path mini;
      Fmt.pr "@.saved to %s (replay with: prima chaos --replay %s)@." path path
  in
  match replay_file with
  | Some path -> (
    match Chaos.Shrink.load path with
    | Error e ->
      Fmt.epr "cannot load repro %s: %s@." path e;
      2
    | Ok repro ->
      let report = Chaos.Shrink.replay repro in
      Fmt.pr "%a@." Chaos.Harness.pp report;
      (match report.Chaos.Harness.violation with
      | None ->
        Fmt.pr "repro no longer fails (recorded invariant %S at step %d)@."
          repro.Chaos.Shrink.invariant repro.Chaos.Shrink.step;
        0
      | Some v ->
        Fmt.pr "@.%a@." Chaos.Harness.pp_violation v;
        1))
  | None -> (
    let actions = Chaos.Schedule.generate ~nsites:sites ~seed ~steps () in
    let report =
      Chaos.Harness.run_actions ~nsites:sites ?defect ?trace
        ~pool:((steps * 3) + 120) ~seed ~actions ()
    in
    Fmt.pr "%a@." Chaos.Harness.pp report;
    match report.Chaos.Harness.violation with
    | None -> 0
    | Some v ->
      if not verbose then begin
        Fmt.pr "@.--- fault log ---@.";
        List.iter (Fmt.pr "%s@.") report.Chaos.Harness.events
      end;
      Fmt.pr "@.%a@." Chaos.Harness.pp_violation v;
      Fmt.pr "reproduce with: prima chaos --seed %d --steps %d --sites %d%s@." seed steps
        sites
        (match defect with
        | None -> ""
        | Some d -> Printf.sprintf " --defect %S" (Chaos.Harness.defect_to_string d));
      if do_shrink then begin
        match Chaos.Shrink.of_report ?defect ~nsites:sites ~actions report with
        | Some repro -> shrink_and_save repro
        | None -> ()
      end;
      1)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Schedule seed; a run replays exactly from its seed.")
  in
  let steps =
    Arg.(value & opt int 400 & info [ "steps" ] ~docv:"N"
           ~doc:"Number of composed fault-schedule actions.")
  in
  let sites =
    Arg.(value & opt int 2 & info [ "sites" ] ~docv:"N"
           ~doc:"Fault-injected remote sites besides the clinical DB.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Stream the fault log while running.")
  in
  let defect =
    Arg.(value & opt (some string) None & info [ "defect" ] ~docv:"NAME"
           ~doc:"Arm an injected bug (\"eat-entry K\", \"drop-replay\", \"stale-vocab\") \
                 so the run has a real failure to find and shrink.")
  in
  let replay =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a serialized repro file instead of generating a schedule; exits \
                 non-zero naming the violated invariant and step.")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ]
           ~doc:"On a violation, delta-debug the schedule to a 1-minimal repro \
                 (deterministic; every surviving action is load-bearing).")
  in
  let repro_out =
    Arg.(value & opt (some string) None & info [ "repro-out" ] ~docv:"FILE"
           ~doc:"With --shrink: save the minimal repro to FILE.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Drive the whole system through a seeded fault schedule and check the model \
             oracle's invariants; shrink failures to minimal repros")
    Term.(const run_chaos $ seed $ steps $ sites $ verbose $ defect $ replay $ shrink
          $ repro_out)

let main_cmd =
  Cmd.group
    (Cmd.info "prima" ~version:"1.0.0"
       ~doc:"PRIMA: privacy policy coverage and refinement for healthcare")
    [ paper_cmd; coverage_cmd; refine_cmd; mine_cmd; simulate_cmd; generate_cmd; analyze_cmd;
      trend_cmd; federation_health_cmd; recover_cmd; verify_cmd; chaos_cmd ]

let () =
  (* PRIMA_VERBOSE=1 surfaces refinement and enforcement decision logs. *)
  setup_logs
    (match Sys.getenv_opt "PRIMA_VERBOSE" with
    | Some _ -> Some Logs.Info
    | None -> Some Logs.Warning);
  exit (Cmd.eval' main_cmd)
