(** The assembled PRIMA architecture of Figure 4.

    Wires Privacy Policy Definition (the HDB Control Center), Audit
    Management (the federation) and Policy Refinement together, and closes
    the loop: patterns accepted during refinement are installed both in the
    formal policy store P_PS and as Active Enforcement permit rules, so the
    corresponding accesses stop needing Break-The-Glass — privacy controls
    are "gradually and seamlessly" embedded into the clinical workflow.

    The loop is degraded-mode aware: consolidation runs through the
    fault-tolerant federation path and carries a {!Audit_mgmt.Health.t}
    report; coverage over a partial or unverified trail is labelled a
    lower bound whose evidence names its reasons; and {!refine} refuses to
    auto-accept patterns mined from a window whose completeness falls
    below the configured threshold. *)

type t

type storage = {
  audit_log : Durable.Log.t;
  quarantine_log : Durable.Log.t;
}
(** Durable backing for the two stateful components that must survive a
    crash: the clinical database's audit store and the federation's
    transit quarantine.  Each is an independent WAL + snapshot pair. *)

type recovery_report = {
  audit : Durable.Recovery.t;
  quarantine : Durable.Recovery.t;
}
(** What reopening each central log found; CRC-valid records that no
    longer decode show only in {!standing_reasons}. *)

val create :
  ?training_minimum:int ->
  ?completeness_threshold:float ->
  ?config:Prima_core.Refinement.config ->
  ?storage:storage ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Prima_core.Policy.t ->
  unit ->
  t
(** Seeds the enforcement rule base from [p_ps] and registers the clinical
    database's audit store as the federation's first site.
    [completeness_threshold] (default 0.9) is the minimum consolidation
    completeness {!refine} accepts over a large window (see
    {!effective_threshold}).  With [storage], the durable state is
    opened-or-recovered before anything writes, and both logs stay
    attached so new writes are write-ahead. *)

val control : t -> Hdb.Control_center.t
val federation : t -> Audit_mgmt.Federation.t
val prima : t -> Prima_core.Prima.t

(** {1 Query governance}

    A resource budget applied to the refinement loop's pattern-extraction
    query (Algorithm 5).  When the budget fires, extraction degrades to a
    lower-bound pattern set and the epoch's qualifier carries
    {!Prima_core.Coverage.Budget_truncated} — the same discipline as a
    partial consolidation window. *)

val query_limits : t -> Relational.Budget.limits option
(** The budget currently applied to refinement queries (None = ungoverned). *)

val set_query_limits : t -> Relational.Budget.limits option -> unit
(** One knob for the whole system's SQL: the limits govern both the
    refinement extraction query (graceful degradation to a lower bound)
    and the enforcement query path ({!Hdb.Control_center.query}, strict —
    over quota raises the typed [Budget_exceeded]). *)

type governance = {
  limits : Relational.Budget.limits option;
  governed_epochs : int;  (** refinement epochs run under a budget *)
  degraded_epochs : int;  (** epochs whose extraction hit the budget *)
  last_budget_stats : Relational.Errors.budget_stats option;
      (** resources the most recent governed extraction consumed *)
  brownout_epochs : int;  (** refinement epochs run under a brownout grant *)
  shed_requests : int;  (** admitted-path requests shed at the gate *)
  classes : Audit_mgmt.Admission.class_stats list;
      (** per-budget-class admission counters; [[]] ungated *)
}

val governance : t -> governance

val completeness_threshold : t -> float
val set_completeness_threshold : t -> float -> unit

val effective_threshold : t -> float
(** The adaptive completeness floor {!refine} actually enforces:
    [threshold * n / (n + 25)] where [n] is the record count of the last
    consolidated window.  Small windows — where one stranded site swings
    completeness by tens of points — get a proportionally lower floor that
    converges to the configured threshold as the window grows. *)

val recovery : t -> recovery_report option
(** The crash-recovery reports from {!create} ([Some] iff [~storage] was
    given). *)

val standing_reasons : t -> Prima_core.Coverage.reason list
(** What opening the durable state lost, computed once from
    {!recovery}: {!Prima_core.Coverage.Wal_tail_lost} ["audit"] or
    ["quarantine"] for a dropped tail or CRC-valid records that no longer
    decode, {!Prima_core.Coverage.Tampered} at the divergence offset for
    tampering.  They stand for the system's lifetime: every coverage
    reading and refinement epoch carries them, after the consolidation's
    own reasons ({!Audit_mgmt.Health.evidence}). *)

val sync_durable : t -> unit
(** fsync every attached log: the central pair, each member site's WAL,
    and the archive's shards + manifest (each a no-op when absent). *)

val checkpoint_durable : t -> unit
(** Compact every attached log: snapshot current state and truncate the
    WALs (central pair, member site WALs, archive shards + manifest). *)

val attach_archive : t -> Audit_mgmt.Shard_store.t -> unit
(** Attach the durable consolidated archive to the federation (see
    {!Audit_mgmt.Federation.attach_archive}). *)

val reseat_site : t -> string -> Audit_mgmt.Site.t -> unit
(** Swap a crash-recovered site back into the federation (see
    {!Audit_mgmt.Federation.reseat_site}). *)

val last_health : t -> Audit_mgmt.Health.t option
(** The health report of the most recent consolidation, if any. *)

val add_site : t -> Audit_mgmt.Site.t -> unit
(** Bring another system's audit trail into the consolidated view. *)

(** {1 Chaos-harness drive hooks}

    Step-wise control over the fault plane, so an external orchestrator
    (lib/chaos) can interleave outages, clock advances and durability
    toggles with the normal loop. *)

val add_faulty_site : ?breaker:Audit_mgmt.Breaker.config -> t -> Audit_mgmt.Fault.t -> unit
(** A federation member reached through a fault-injection wrapper, gated
    by its own circuit breaker. *)

val heal_all : t -> unit
(** {!Audit_mgmt.Fault.heal} every member. *)

val advance_clock : t -> int -> unit
(** Advance the federation's simulated millisecond clock (retries,
    breaker cooldowns). *)

val set_group_commit : t -> bool -> unit
(** Toggle group-commit batching on every attached WAL (central pair and
    member site WALs): pending appends coalesce into one device write at
    the next {!sync_durable}. *)

val vocab : t -> Vocabulary.Vocab.t
(** The vocabulary the refinement/coverage plane currently grounds
    against. *)

val set_vocab : t -> Vocabulary.Vocab.t -> unit
(** Adopt an edited vocabulary (a freshly constructed
    {!Vocabulary.Vocab.t} — e.g. a taxonomy that grew a leaf) on the
    refinement/coverage plane.  Fresh construction means a fresh
    {!Vocabulary.Vocab.stamp}: every grounding cache keyed by the old
    stamp goes cold atomically, so post-edit coverage must equal a
    from-scratch recompute.  The enforcement rule base keeps matching
    under its creation vocabulary — edits only add values, and installed
    permit rules reference values that existed when they were
    installed. *)

val set_auto_checkpoint : ?policy:Durable.Log.checkpoint_policy -> t -> bool -> unit
(** Toggle background WAL compaction ({!Durable.Log.set_auto_checkpoint},
    default policy: every 64 records) on every attached log — the central
    audit/quarantine pair and each member site's op WAL.  [false] clears
    the policy everywhere. *)

val sync_audit : t -> Audit_mgmt.Health.t
(** Pull the fault-aware consolidated view into the refinement component's
    P_AL; returns (and retains) the consolidation's health report.  When
    the fresh merge extends the previous one entry for entry and P_AL is
    still the one this function installed, only the new entries are
    converted and appended; otherwise P_AL is rebuilt from the whole
    merge.  Either way P_AL equals
    [To_policy.policy_of_entries] of the fresh merge. *)

val coverage : t -> Prima_core.Prima.coverage_report
(** Syncs, then reports both coverage readings (unqualified). *)

type qualified_coverage = {
  set_semantics : Prima_core.Coverage.qualified;
  bag_semantics : Prima_core.Coverage.qualified;
  health : Audit_mgmt.Health.t;
}

val coverage_qualified : t -> qualified_coverage
(** Syncs, then reports both coverage readings, qualified by the
    consolidation's evidence joined with {!standing_reasons}: [Exact]
    only when neither carries a reason. *)

val install_pattern : t -> Prima_core.Rule.t -> unit
(** Install a pattern as an enforcement permit rule (no-op for rules
    without the three pattern attributes). *)

val trend : t -> window:int -> Prima_core.Trend.point list
(** Coverage trend of the consolidated trail against the current store;
    {!Prima_core.Trend.drifting} on the result signals a refinement run is
    due. *)

val refine : t -> (Prima_core.Refinement.epoch_report, string) result
(** One full cycle: consolidate logs, run Algorithm 2 with the configured
    acceptance, embed accepted patterns into enforcement.  [Error] during
    the training period — and [Error] when consolidation completeness is
    below {!effective_threshold}: patterns mined from a partial window
    are never auto-accepted, because the evidence that would have rejected
    them may simply not have arrived.  The epoch's evidence is the
    consolidation's and {!standing_reasons}, plus
    {!Prima_core.Coverage.Budget_truncated} when extraction hits its
    budget. *)

(** {1 Multi-tenant admission}

    Budget classes on both request paths (see {!Audit_mgmt.Admission}).
    Once installed, the controller is shared with every member site's
    ingestion gate, its backpressure fed from the federation's health
    signals plus the central WAL pair's sync lag. *)

val set_budget_classes :
  t -> (string * Audit_mgmt.Admission.class_config) list -> unit
(** Declare the budget classes and install a fresh controller over them,
    buckets full at the federation's current clock reading. *)

val set_admission : t -> Audit_mgmt.Admission.t option -> unit
(** Install (or remove) an externally owned controller — e.g. one that
    must survive a system rebuild after a crash. *)

val admission : t -> Audit_mgmt.Admission.t option

val assign_tenant : t -> tenant:string -> class_name:string -> unit
(** @raise Invalid_argument without a controller or on an unknown class. *)

val refresh_pressure : t -> unit
(** Re-derive backpressure into the controller (no-op ungated).  The
    admitted paths do this before every decision. *)

type admitted_outcome = {
  outcome : Hdb.Enforcement.outcome;
  admitted_class : string;
  browned_out : bool;
      (** Partial execution: the outcome's rows are a lower bound *)
}

type admitted_error =
  | Shed of Audit_mgmt.Admission.rejection
      (** rejected at the gate, all-or-nothing and retryable *)
  | Query_failed of Hdb.Enforcement.error

val enforce_admitted :
  ?cost:Audit_mgmt.Admission.cost ->
  ?break_glass:bool ->
  t ->
  principal:Audit_mgmt.Admission.principal ->
  user:string ->
  role:string ->
  purpose:string ->
  string ->
  (admitted_outcome, admitted_error) result
(** An enforcement query through the admission gate.  The grant's limits
    compose tightest-wins with the standing {!query_limits}; actual
    consumption settles back against the class.  [cost] defaults to a
    64-row, 4096-tick declaration. *)

val refine_admitted :
  ?cost:Audit_mgmt.Admission.cost ->
  t ->
  principal:Audit_mgmt.Admission.principal ->
  (Prima_core.Refinement.epoch_report, string) result
(** {!refine} through the admission gate.  A shed epoch returns the typed
    rejection message; a brownout epoch runs under the tightened grant
    with a {!Prima_core.Coverage.Brownout} reason, so it always reports
    [Lower_bound] — the run was deliberately truncated, so its readings
    never claim exactness. *)
