(** The PRIMA policy-refinement component (Figure 4), at the policy level.

    Owns the policy store P_PS, consumes consolidated audit rules from
    Audit Management as P_AL, enforces a training period, and exposes
    coverage measurement and refinement runs.  The stakeholder-facing
    integration with HDB enforcement is {!Prima_system.System}. *)

type t

val create :
  ?training_minimum:int ->
  ?config:Refinement.config ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  unit ->
  t
(** [training_minimum] is the number of audit entries that must accumulate
    before {!refine} will run (default 0). *)

val vocab : t -> Vocabulary.Vocab.t

val set_vocab : t -> Vocabulary.Vocab.t -> unit
(** Adopt an edited vocabulary mid-run.  Vocabulary values are immutable
    and freshly stamped ({!Vocabulary.Vocab.stamp}), so the grounding
    caches keyed by the old stamp go cold atomically: coverage computed
    after the swap must equal a from-scratch recompute over the same
    policies. *)

val policy_store : t -> Policy.t

val audit_policy : t -> Policy.t
(** P_AL as seven-term rules.  P_AL is held coded ({!trail}); the first
    call after an append builds the appended entries' rules and extends
    the previous result with them, so the rules of a prefix stay the same
    values across appends. *)

val trail : t -> Trail.t
(** P_AL itself.  Appending to it ({!Trail.append}) is ingesting; the
    trail is replaced, never cleared, by {!reset_audit}. *)

val history : t -> Refinement.epoch_report list
(** All completed refinement runs, oldest first. *)

val set_training_minimum : t -> int -> unit
val refinement_config : t -> Refinement.config
val set_refinement_config : t -> Refinement.config -> unit

val ingest_rules : t -> Rule.t list -> unit
(** Append audit rules to P_AL, coding each ({!Trail.append_rules}).  An
    empty list leaves P_AL untouched (the same {!audit_policy} value). *)

type coverage_report = {
  set_semantics : Coverage.stats;  (** Definition 9 *)
  bag_semantics : Coverage.stats;  (** Section 5 accounting *)
}

val coverage : t -> coverage_report
(** Both coverage readings, over the pattern attributes: equal to
    {!Coverage.aligned} over {!policy_store} and {!audit_policy},
    [uncovered] lists included, computed from P_AL's codes
    ({!Trail.coverage}, {!Trail.coverage_bag}) without building its
    rules. *)

val in_training : t -> bool

val refine : ?evidence:Coverage.evidence -> t -> (Refinement.epoch_report, string) result
(** One refinement pass over everything collected so far
    ({!Refinement.run_trail_epoch} with the refinement config and
    [evidence]); accepted patterns extend the store in place.  [Error]
    during the training period.  [evidence] (default {!Coverage.exact})
    qualifies the epoch's readings when P_AL came from a partial or
    unverified consolidation. *)

val reset_audit : t -> unit
(** Drop consumed audit entries (sliding-window refinement): P_AL becomes
    a fresh, empty {!trail}. *)
