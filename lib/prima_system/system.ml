(* The assembled PRIMA architecture of Figure 4:

     stakeholders -> Privacy Policy Definition (HDB Control Center)
                  -> privacy controls in the clinical environment
                  -> audit logs -> Audit Management (federation)
                  -> Policy Refinement -> definitions back into the policy

   This module wires the three components together and closes the loop:
   patterns accepted during refinement are installed both in the formal
   policy store P_PS and as Active Enforcement permit rules, so the
   corresponding accesses stop needing Break-The-Glass — privacy controls
   are "gradually and seamlessly" embedded into the clinical workflow.

   The loop is degraded-mode aware: consolidation runs through the
   fault-tolerant federation path and carries a health report; a coverage
   measurement from a partial or unverified trail is labelled a lower
   bound that names its reasons; and refinement patterns mined from a
   window whose completeness falls below the configured threshold are
   never auto-accepted — the evidence that would have rejected them may
   simply not have arrived. *)

(* Durable backing for the two stateful components that must survive a
   crash: the clinical database's audit store and the federation's transit
   quarantine.  Each gets its own WAL + snapshot pair. *)
type storage = {
  audit_log : Durable.Log.t;
  quarantine_log : Durable.Log.t;
}

type recovery_report = {
  audit : Durable.Recovery.t;
  quarantine : Durable.Recovery.t;
}

type t = {
  control : Hdb.Control_center.t;
  federation : Audit_mgmt.Federation.t;
  prima : Prima_core.Prima.t;
  mutable completeness_threshold : float;
  mutable last_health : Audit_mgmt.Health.t option;
  recovery : recovery_report option; (* Some iff created with ~storage *)
  standing : Prima_core.Coverage.reason list; (* what that recovery lost *)
  mutable governed_epochs : int; (* refinement epochs run under a budget *)
  mutable degraded_epochs : int; (* of those, how many hit the budget *)
  mutable last_budget_stats : Relational.Errors.budget_stats option;
  mutable brownout_epochs : int; (* refinement epochs run under a brownout grant *)
  mutable shed_requests : int; (* admitted-path requests shed at the gate *)
  (* The merge P_AL was last coded from, the trail [sync_audit] installed
     it in, and that trail's length then: the next sync codes only what a
     fresh merge appends to it (see [sync_audit]). *)
  mutable synced : (Hdb.Audit_schema.entry list * Prima_core.Trail.t * int) option;
  patterns : Audit_mgmt.To_policy.patterns; (* shared pattern rules for coding *)
}

(* The reasons a lossy recovery of one central log leaves standing for the
   system's lifetime: the log on disk is a verified prefix, not
   necessarily the whole history. *)
let recovery_reasons log (r : Durable.Recovery.t) ~undecodable =
  match r.Durable.Recovery.verdict with
  | Durable.Recovery.Tamper_detected { offset } -> [ Prima_core.Coverage.Tampered { log; offset } ]
  | _ when Durable.Recovery.dropped_tail r || undecodable > 0 ->
    [ Prima_core.Coverage.Wal_tail_lost log ]
  | _ -> []

let create ?(training_minimum = 0) ?(completeness_threshold = 0.9) ?config ?storage ~vocab
    ~p_ps () =
  let control = Hdb.Control_center.create ~vocab () in
  (* Seed the enforcement rule base from the initial policy store. *)
  List.iter
    (fun rule ->
      match
        ( Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.data,
          Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.purpose,
          Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.authorized )
      with
      | Some data, Some purpose, Some authorized ->
        Hdb.Control_center.permit control ~data ~purpose ~authorized
      | _ -> ())
    (Prima_core.Policy.rules p_ps);
  let federation = Audit_mgmt.Federation.create () in
  (* Open-or-recover the durable state before anything writes: the audit
     store replays its WAL into the control center's (still empty) columns,
     the quarantine replays its op log into the federation's transit
     quarantine, and both logs stay attached so new writes are
     write-ahead. *)
  let recovery, standing =
    match storage with
    | None -> (None, [])
    | Some { audit_log; quarantine_log } ->
      let audit_recovery, audit_bad =
        Hdb.Audit_store.restore (Hdb.Control_center.audit_store control) audit_log
      in
      let quarantine_recovery, quarantine_bad =
        Audit_mgmt.Quarantine.restore
          (Audit_mgmt.Federation.transit_quarantine federation)
          quarantine_log
      in
      ( Some { audit = audit_recovery; quarantine = quarantine_recovery },
        recovery_reasons "audit" audit_recovery ~undecodable:audit_bad
        @ recovery_reasons "quarantine" quarantine_recovery ~undecodable:quarantine_bad )
  in
  Audit_mgmt.Federation.add_site federation
    (Audit_mgmt.Site.of_store ~name:"clinical-db" (Hdb.Control_center.audit_store control));
  let prima = Prima_core.Prima.create ~training_minimum ?config ~vocab ~p_ps () in
  { control;
    federation;
    prima;
    completeness_threshold;
    last_health = None;
    recovery;
    standing;
    governed_epochs = 0;
    degraded_epochs = 0;
    last_budget_stats = None;
    brownout_epochs = 0;
    shed_requests = 0;
    synced = None;
    patterns = Audit_mgmt.To_policy.patterns ();
  }

let recovery t = t.recovery
let standing_reasons t = t.standing

(* The evidence of a reading over [health]'s window: the federation's
   reasons, the central pair's standing ones, then the caller's. *)
let evidence t health reasons =
  Prima_core.Coverage.join
    (Audit_mgmt.Health.evidence health)
    { Prima_core.Coverage.exact with reasons = t.standing @ reasons }

let sync_durable t =
  Hdb.Audit_store.sync (Hdb.Control_center.audit_store t.control);
  Audit_mgmt.Quarantine.sync (Audit_mgmt.Federation.transit_quarantine t.federation);
  List.iter Audit_mgmt.Site.sync_wal (Audit_mgmt.Federation.sites t.federation);
  Option.iter Audit_mgmt.Shard_store.sync (Audit_mgmt.Federation.archive t.federation)

let checkpoint_durable t =
  Hdb.Audit_store.checkpoint (Hdb.Control_center.audit_store t.control);
  Audit_mgmt.Quarantine.checkpoint (Audit_mgmt.Federation.transit_quarantine t.federation);
  List.iter Audit_mgmt.Site.checkpoint_wal (Audit_mgmt.Federation.sites t.federation);
  Option.iter Audit_mgmt.Shard_store.checkpoint (Audit_mgmt.Federation.archive t.federation)

let attach_archive t archive = Audit_mgmt.Federation.attach_archive t.federation archive

let reseat_site t name site = Audit_mgmt.Federation.reseat_site t.federation name site

let control t = t.control
let federation t = t.federation
let prima t = t.prima

(* --- query governance --- *)

(* Budget applied to the refinement loop's pattern-extraction query; lives
   in the refinement config so Prima-level callers see the same limits.
   The same limits govern the enforcement query path (strict budgets in
   [Control_center.query]): one knob for the whole system's SQL. *)
let query_limits t =
  (Prima_core.Prima.refinement_config t.prima).Prima_core.Refinement.limits

let set_query_limits t limits =
  let config = Prima_core.Prima.refinement_config t.prima in
  Prima_core.Prima.set_refinement_config t.prima
    { config with Prima_core.Refinement.limits };
  Hdb.Control_center.set_query_limits t.control limits

type governance = {
  limits : Relational.Budget.limits option;
  governed_epochs : int;
  degraded_epochs : int;
  last_budget_stats : Relational.Errors.budget_stats option;
  brownout_epochs : int;
  shed_requests : int;
  classes : Audit_mgmt.Admission.class_stats list; (* per budget class *)
}

let governance t =
  { limits = query_limits t;
    governed_epochs = t.governed_epochs;
    degraded_epochs = t.degraded_epochs;
    last_budget_stats = t.last_budget_stats;
    brownout_epochs = t.brownout_epochs;
    shed_requests = t.shed_requests;
    classes =
      (match Audit_mgmt.Federation.admission t.federation with
      | None -> []
      | Some adm -> Audit_mgmt.Admission.stats adm);
  }

let completeness_threshold t = t.completeness_threshold
let set_completeness_threshold t x = t.completeness_threshold <- x

(* Adaptive completeness gate: the configured threshold is what we demand
   of a large window, but insisting on it for a handful of records blocks
   refinement on windows where a single stranded site swings completeness
   by tens of points.  Pseudo-count smoothing scales the floor with window
   size — at [n = adaptive_pivot] records the effective threshold is half
   the configured one, converging to it as the window grows. *)
let adaptive_pivot = 25

let effective_threshold_for t ~window =
  t.completeness_threshold *. float_of_int window
  /. float_of_int (window + adaptive_pivot)

let effective_threshold t =
  let window =
    match t.last_health with Some h -> h.Audit_mgmt.Health.total | None -> 0
  in
  effective_threshold_for t ~window

let last_health t = t.last_health

let add_site t site = Audit_mgmt.Federation.add_site t.federation site

(* --- chaos-harness drive hooks: step the fault plane from outside --- *)

let add_faulty_site ?breaker t fault =
  Audit_mgmt.Federation.add_faulty_site ?breaker t.federation fault

let heal_all t = Audit_mgmt.Federation.heal_all t.federation

let advance_clock t ms = Audit_mgmt.Federation.advance_clock t.federation ms

(* Toggle group-commit batching on both attached WALs (no-op without
   [~storage]); pending appends coalesce into one device write at the next
   [sync_durable]. *)
let set_group_commit t on =
  let set = function Some log -> Durable.Log.set_group_commit log on | None -> () in
  set (Hdb.Audit_store.log (Hdb.Control_center.audit_store t.control));
  set (Audit_mgmt.Quarantine.log (Audit_mgmt.Federation.transit_quarantine t.federation));
  List.iter
    (fun site -> set (Audit_mgmt.Site.wal site))
    (Audit_mgmt.Federation.sites t.federation)

(* Adopt an edited vocabulary on the refinement/coverage plane.  The
   enforcement rule base keeps matching under the vocabulary it was
   created with — an edit only ever adds values, and installed permit
   rules reference values that existed at installation time — while every
   coverage and refinement reading switches to the new (freshly stamped)
   vocabulary at once. *)
let set_vocab t vocab = Prima_core.Prima.set_vocab t.prima vocab

let vocab t = Prima_core.Prima.vocab t.prima

(* Toggle background WAL compaction on every attached log: the central
   audit/quarantine pair and each member site's op WAL.  No-op for logs
   that are not attached. *)
let set_auto_checkpoint ?(policy = Durable.Log.checkpoint_every ~records:64 ()) t on =
  let audit = Hdb.Control_center.audit_store t.control in
  let transit = Audit_mgmt.Federation.transit_quarantine t.federation in
  let sites = Audit_mgmt.Federation.sites t.federation in
  if on then begin
    Hdb.Audit_store.enable_auto_checkpoint ~policy audit;
    Audit_mgmt.Quarantine.enable_auto_checkpoint ~policy transit;
    List.iter (Audit_mgmt.Site.enable_auto_checkpoint ~policy) sites
  end
  else begin
    let clear log = Option.iter Durable.Log.clear_auto_checkpoint log in
    clear (Hdb.Audit_store.log audit);
    clear (Audit_mgmt.Quarantine.log transit);
    List.iter (fun site -> clear (Audit_mgmt.Site.wal site)) sites
  end

(* [Some suffix] when [fresh] is [prev] followed by [suffix], entry for
   entry. *)
let rec suffix_after prev fresh =
  match (prev, fresh) with
  | [], suffix -> Some suffix
  | p :: prev, f :: fresh when Audit_mgmt.To_policy.same_rule p f ->
    suffix_after prev fresh
  | _ -> None

(* Pull the fault-aware consolidated view into the refinement component's
   P_AL; the health report of this consolidation is retained and its
   completeness qualifies everything computed from the window.

   Each entry is coded once, and its seven-term rule is built only if
   someone asks Prima for P_AL's rules.  When the fresh merge extends the
   one P_AL was coded from, and Prima still holds the trail installed here
   at the length it had then, only the new suffix is coded and appended:
   coding is entry by entry, so the result equals a full rebuild.
   Anything else — an entry dropped or moved by a skipped, stale-served,
   quarantined or crash-reseated site, a late entry merged before the old
   tail, or P_AL reset or appended to from outside — falls back to
   rebuilding P_AL from the whole merge. *)
let sync_audit t =
  let result = Audit_mgmt.Federation.consolidated_result t.federation in
  let entries = result.Audit_mgmt.Federation.entries in
  t.last_health <- Some result.Audit_mgmt.Federation.health;
  let prima = t.prima in
  let suffix =
    match t.synced with
    | Some (prev, trail, length)
      when Prima_core.Prima.trail prima == trail && Prima_core.Trail.length trail = length ->
      suffix_after prev entries
    | _ -> None
  in
  let fresh =
    match suffix with
    | Some suffix -> suffix
    | None ->
      Prima_core.Prima.reset_audit prima;
      entries
  in
  let trail = Prima_core.Prima.trail prima in
  Prima_core.Trail.append trail
    ~rules:(lazy (List.map Audit_mgmt.To_policy.rule_of_entry fresh))
    (Audit_mgmt.To_policy.trail_entry t.patterns)
    fresh;
  t.synced <- Some (entries, trail, Prima_core.Trail.length trail);
  result.Audit_mgmt.Federation.health

let coverage t =
  ignore (sync_audit t);
  Prima_core.Prima.coverage t.prima

(* Both coverage readings, each labelled with the evidence of the window
   they were computed from. *)
type qualified_coverage = {
  set_semantics : Prima_core.Coverage.qualified;
  bag_semantics : Prima_core.Coverage.qualified;
  health : Audit_mgmt.Health.t;
}

let coverage_qualified t : qualified_coverage =
  let health = sync_audit t in
  let evidence = evidence t health [] in
  let report = Prima_core.Prima.coverage t.prima in
  { set_semantics = Prima_core.Coverage.qualify evidence report.Prima_core.Prima.set_semantics;
    bag_semantics = Prima_core.Coverage.qualify evidence report.Prima_core.Prima.bag_semantics;
    health;
  }

(* Install an adopted pattern as an enforcement rule so subsequent accesses
   matching it are regular, not exception-based. *)
let install_pattern t rule =
  match
    ( Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.data,
      Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.purpose,
      Prima_core.Rule.find_attr rule Vocabulary.Audit_attrs.authorized )
  with
  | Some data, Some purpose, Some authorized ->
    Hdb.Control_center.permit t.control ~data ~purpose ~authorized
  | _ -> ()

(* Coverage trend over the consolidated trail, judged against the current
   store; [drifting] on its result signals a refinement run is due. *)
let trend t ~window =
  ignore (sync_audit t);
  Prima_core.Trend.compute
    (Prima_core.Prima.vocab t.prima)
    ~p_ps:(Prima_core.Prima.policy_store t.prima)
    ~p_al:(Prima_core.Prima.audit_policy t.prima)
    ~window ()

(* One full refinement cycle: consolidate logs, run Algorithm 2 with the
   configured acceptance, embed accepted patterns into enforcement.  The
   epoch's evidence is the window's plus the caller's [reasons].

   Refuses to run when the consolidation completeness is below the
   threshold: patterns mined from a partial window would be folded into
   P_PS and enforcement on evidence that may be contradicted by the
   missing records.  Recover the sites (or reprocess the quarantine) and
   retry, or lower the threshold deliberately. *)
let refine_with t reasons : (Prima_core.Refinement.epoch_report, string) result =
  let health = sync_audit t in
  let c = health.Audit_mgmt.Health.completeness in
  let floor = effective_threshold_for t ~window:health.Audit_mgmt.Health.total in
  if c < floor then
    Error
      (Printf.sprintf
         "degraded audit window: completeness %.1f%% below threshold %.1f%% (configured \
          %.1f%%, scaled to a %d-record window); refusing to auto-accept patterns mined \
          from a partial trail"
         (100. *. c) (100. *. floor)
         (100. *. t.completeness_threshold)
         health.Audit_mgmt.Health.total)
  else
    match Prima_core.Prima.refine ~evidence:(evidence t health reasons) t.prima with
    | Error _ as e -> e
    | Ok report ->
      if query_limits t <> None then begin
        t.governed_epochs <- t.governed_epochs + 1;
        t.last_budget_stats <- Some report.Prima_core.Refinement.budget_stats
      end;
      if
        List.exists
          (function Prima_core.Coverage.Budget_truncated _ -> true | _ -> false)
          (Prima_core.Coverage.reasons report.Prima_core.Refinement.qualifier)
      then t.degraded_epochs <- t.degraded_epochs + 1;
      List.iter (install_pattern t) report.Prima_core.Refinement.accepted;
      Ok report

let refine t = refine_with t []

(* --- multi-tenant admission: budget classes on both request paths --- *)

module Admission = Audit_mgmt.Admission

let admission t = Audit_mgmt.Federation.admission t.federation

let set_admission t adm = Audit_mgmt.Federation.set_admission t.federation adm

(* Declare the budget classes and install a fresh controller over them,
   shared with every member site's ingestion gate.  The controller's
   buckets start full at the federation's current clock reading. *)
let set_budget_classes t classes =
  let adm =
    Admission.create ~now:(Audit_mgmt.Federation.clock t.federation) classes
  in
  set_admission t (Some adm)

let assign_tenant t ~tenant ~class_name =
  match admission t with
  | None -> invalid_arg "System.assign_tenant: no budget classes installed"
  | Some adm -> Admission.assign adm ~tenant class_name

(* Backpressure: the federation's own signals plus the central WAL pair's
   sync lag.  Raises (or lowers) the admission bar; no-op ungated. *)
let refresh_pressure t =
  match admission t with
  | None -> ()
  | Some adm ->
    let p = Audit_mgmt.Federation.pressure_signals t.federation in
    let pending = function
      | Some log -> Durable.Log.pending_records log
      | None -> 0
    in
    let central =
      pending (Hdb.Audit_store.log (Hdb.Control_center.audit_store t.control))
      + pending
          (Audit_mgmt.Quarantine.log (Audit_mgmt.Federation.transit_quarantine t.federation))
    in
    Admission.set_pressure adm
      { p with Admission.wal_backlog = p.Admission.wal_backlog + central }

type admitted_outcome = {
  outcome : Hdb.Enforcement.outcome;
  admitted_class : string;
  browned_out : bool; (* Partial execution: result rows are a lower bound *)
}

type admitted_error =
  | Shed of Admission.rejection (* rejected at the gate; retryable *)
  | Query_failed of Hdb.Enforcement.error

(* An enforcement query through the admission gate.  The grant's limits
   compose tightest-wins with the standing query limits; a brownout grant
   runs the budget in Partial mode, so the outcome is an honest prefix.
   Actual consumption settles back against the class, so an
   underestimated cost declaration is charged eventually. *)
let enforce_admitted ?(cost = Admission.cost ~rows:64 ~ticks:4096 ()) ?break_glass t
    ~principal ~user ~role ~purpose sql =
  match admission t with
  | None -> (
    match Hdb.Control_center.query ?break_glass t.control ~user ~role ~purpose sql with
    | Ok outcome -> Ok { outcome; admitted_class = "(ungated)"; browned_out = false }
    | Error e -> Error (Query_failed e))
  | Some adm -> (
    refresh_pressure t;
    let now = Audit_mgmt.Federation.clock t.federation in
    match Admission.admit adm ~now ~kind:Admission.Query principal cost with
    | Admission.Rejected r ->
      t.shed_requests <- t.shed_requests + 1;
      Error (Shed r)
    | Admission.Admitted grant | Admission.Brownout grant ->
      let browned_out = grant.Admission.g_mode = Relational.Budget.Partial in
      let limits =
        match query_limits t with
        | None -> grant.Admission.g_limits
        | Some l -> Relational.Budget.limits_min l grant.Admission.g_limits
      in
      let budget = Relational.Budget.create ~mode:grant.Admission.g_mode limits in
      let result =
        Hdb.Control_center.query ?break_glass ~budget t.control ~user ~role ~purpose sql
      in
      Admission.settle adm ~now principal ~declared:cost (Relational.Budget.stats budget);
      (match result with
      | Ok outcome ->
        Ok { outcome; admitted_class = grant.Admission.g_class; browned_out }
      | Error e -> Error (Query_failed e)))

(* One refinement cycle through the admission gate.  A shed returns the
   typed rejection message; a brownout composes the grant's limits over
   the standing ones and hands the epoch a [Brownout] reason — the run
   was deliberately truncated, so its readings must not claim exactness
   even if the tightened budget never fired. *)
let refine_admitted ?(cost = Admission.cost ~rows:256 ~ticks:65536 ()) t ~principal =
  match admission t with
  | None -> refine t
  | Some adm -> (
    refresh_pressure t;
    let now = Audit_mgmt.Federation.clock t.federation in
    match Admission.admit adm ~now ~kind:Admission.Query principal cost with
    | Admission.Rejected r ->
      t.shed_requests <- t.shed_requests + 1;
      Error (Admission.rejection_to_string r)
    | Admission.Admitted grant | Admission.Brownout grant ->
      let browned_out = grant.Admission.g_mode = Relational.Budget.Partial in
      let saved = query_limits t in
      let limits =
        match saved with
        | None -> grant.Admission.g_limits
        | Some l -> Relational.Budget.limits_min l grant.Admission.g_limits
      in
      set_query_limits t (Some limits);
      let result = refine_with t (if browned_out then [ Prima_core.Coverage.Brownout ] else []) in
      set_query_limits t saved;
      Result.iter
        (fun (report : Prima_core.Refinement.epoch_report) ->
          Admission.settle adm ~now principal ~declared:cost
            report.Prima_core.Refinement.budget_stats;
          if browned_out then t.brownout_epochs <- t.brownout_epochs + 1)
        result;
      result)
