(** Seeded whole-system fault schedules.

    One action stream interleaves the normal PRIMA loop with every fault
    plane the stack owns: federation outages/heals and simulated-clock
    advances ({!Audit_mgmt.Fault}), durable-device power cuts at each
    {!Durable.Device.crash_point}, query-budget regimes on the
    enforcement path ({!Relational.Budget}), schema-mapping swaps on the
    raw ingest path ({!Audit_mgmt.Mapping}), mid-run vocabulary edits
    racing the grounding caches, auto-checkpoint toggles, and
    purpose-workflow plans with plan-implausible twists
    ({!Workload.Purpose}).  Deterministic in [seed].

    Actions serialize through {!to_string}/{!of_string}, so a shrunk
    schedule replays from its textual repro alone ({!Shrink}). *)

type enforce =
  | E_plain  (** ungoverned; must return the full result set *)
  | E_tight_rows  (** row quota below the table size: must raise, not truncate *)
  | E_wall of int  (** wall-clock deadline driven off the simulated clock *)
  | E_cancel of int  (** cooperative cancellation after [n] ticks *)

type action =
  | Append_clinical of int
  | Append_remote of int * int  (** (site index, count) *)
  | Append_remote_raw of int * int
      (** (site index, count): the same accesses arrive as foreign-dialect
          raw rows through the site's schema {!Audit_mgmt.Mapping} — under
          a broken mapping they must quarantine, never drop *)
  | Set_mapping of int * bool
      (** (site index, correct?): swap remote [i]'s schema mapping mid-run.
          [true] installs the correct foreign-dialect mapping and
          reprocesses whatever the previous mapping quarantined; [false]
          installs a broken one (the role column alias is missing) *)
  | Append_workflow of int * Workload.Purpose.twist option
      (** (template pick, twist): one multi-step clinical plan lands on the
          clinical DB — admission through billing — either faithful to its
          template or twisted into a plan-implausible sequence *)
  | Vocab_edit of int
      (** grow a taxonomy leaf under the picked parent category and adopt
          the re-stamped vocabulary mid-run, then append one access using
          the new leaf: every grounding cache keyed by the old stamp must
          go cold, post-edit coverage must equal a from-scratch recompute *)
  | Sync_durable
  | Checkpoint_durable
  | Set_auto_checkpoint of bool
      (** toggle background WAL compaction on every attached log while
          appends, crashes and consolidations keep racing it *)
  | Crash of Durable.Device.crash_point
  | Site_crash of int * Durable.Device.crash_point
      (** (site index, point): power-cut that remote's own WAL, recover
          it locally, reseat it and replay the lost suffix *)
  | Consolidate
  | Outage of int
  | Heal of int
  | Advance_clock of int
  | Refine of int option  (** [Some ticks]: governed extraction budget *)
  | Refine_race of int
      (** consolidate, let [n] fresh accesses land behind the window's
          back, then refine: the epoch must stay sound for the window it
          actually saw *)
  | Set_threshold of int
      (** set the completeness threshold to [pct]/100 mid-run; acceptance
          discipline must follow the new floor immediately *)
  | Enforce of enforce
  | Set_group_commit of bool
  | Tamper of int * int
      (** (record pick, bit pick): flip one bit of a previously accepted
          (stable) audit WAL record; recovery must say [Tamper_detected] *)
  | Overload_storm of int * int
      (** (tenant index, rate): [rate] single-row mutation requests from
          the storm tenant race fixed probe loads from every other tenant
          through the admission gate's weighted-fair arbiter
          ({!Audit_mgmt.Admission.drain}); non-storm tenants must keep
          exactly their token-bucket floor, no mutation may brown out,
          and every shed request must be all-or-nothing with an honest
          retry hint *)
  | Set_budget_class of int * int
      (** (tenant index, preset pick): reconfigure that tenant's budget
          class to one of {!n_class_presets} fixed presets mid-run — from
          generous down to a zero-capacity class that can never admit *)

(** {1 Generation} *)

exception Invalid_weights of string
(** Raised by {!generate} when a weight is negative or the table sums to
    zero — a schedule that could draw nothing is a configuration error,
    not an empty run. *)

type weights = {
  w_append_clinical : int;
  w_append_remote : int;
  w_append_remote_raw : int;
  w_set_mapping : int;
  w_append_workflow : int;
  w_vocab_edit : int;
  w_sync : int;
  w_checkpoint : int;
  w_auto_checkpoint : int;
  w_crash : int;
  w_site_crash : int;
  w_consolidate : int;
  w_outage : int;
  w_heal : int;
  w_advance : int;
  w_refine : int;
  w_refine_race : int;
  w_threshold : int;
  w_enforce : int;
  w_group_commit : int;
  w_tamper : int;
  w_overload_storm : int;
  w_set_budget_class : int;
}
(** Relative draw frequency per action class.  A zero weight means that
    class is never drawn (pinned by test); negative weights and all-zero
    tables raise {!Invalid_weights}. *)

val default_weights : weights

val n_tenants : int
(** The fixed multi-tenant cast (3): storm and probe principals are
    always drawn from tenants [0 .. n_tenants - 1], each bound to its own
    budget class. *)

val n_class_presets : int
(** Size of the budget-class preset palette {!Set_budget_class} draws
    from (4): generous, standard, tight, zero-capacity. *)

val generate :
  ?weights:weights -> nsites:int -> seed:int -> steps:int -> unit -> action list
(** @raise Invalid_weights on a negative weight or an all-zero table. *)

(** {1 Serialization} *)

val to_string : action -> string

val of_string : string -> action option
(** Total inverse of {!to_string}: [of_string (to_string a) = Some a] for
    every action; [None] on anything else. *)
