(** Refinement (Algorithm 2): the feedback loop between real and ideal
    policy.

    {v Practice       <- Filter(P_AL)                  (Algorithm 3)
   Patterns       <- extractPatterns(Practice, V)  (Algorithms 4-5)
   usefulPatterns <- Prune(Patterns, P_PS, V)      (Algorithm 6) v}

    plus the human acceptance step the paper mandates after Prune, and an
    epoch driver that folds accepted patterns back into the policy store
    while tracking coverage. *)

type acceptance =
  | Accept_all  (** trusting privacy officer: every useful pattern adopted *)
  | Reject_all  (** audit-only mode: nothing changes *)
  | Oracle of (Rule.t -> bool)
      (** e.g. a ground-truth classifier in experiments, or a human review
          queue in deployment *)

type config = {
  backend : Extract_patterns.backend;
  keep_prohibitions : bool;
  acceptance : acceptance;
  limits : Relational.Budget.limits option;
      (** resource budget for the pattern-extraction query; [None] (the
          default) runs ungoverned.  When the budget fires, extraction
          degrades to a lower-bound pattern set and the epoch's coverage
          readings are labelled {!Coverage.Lower_bound}. *)
}

val default_config : config
(** SQL backend with the paper's defaults, prohibitions dropped,
    accept-all, no resource budget. *)

val useful_patterns :
  ?config:config -> vocab:Vocabulary.Vocab.t -> p_ps:Policy.t -> p_al:Policy.t -> unit ->
  Rule.t list
(** Algorithm 2 verbatim: the useful patterns, before human review. *)

val accept : acceptance -> Rule.t list -> Rule.t list

type epoch_report = {
  practice_size : int;
  patterns : Rule.t list;
  useful : Rule.t list;
  accepted : Rule.t list;
  p_ps' : Policy.t;  (** the store extended with the accepted patterns *)
  coverage_before : Coverage.stats;  (** bag semantics, pattern attributes *)
  coverage_after : Coverage.stats;
  qualifier : Coverage.qualifier;
      (** [Exact] when the epoch saw the whole consolidated trail;
          [Lower_bound] with the window's completeness otherwise — also
          forced when extraction degraded under its resource budget *)
  degraded : bool;
      (** pattern extraction exceeded its budget and retried in partial
          mode: [patterns] covers a prefix of the practice table *)
  budget_stats : Relational.Errors.budget_stats;
      (** resources the extraction query consumed (zeros when ungoverned) *)
}

val run_epoch :
  ?config:config ->
  ?completeness:float ->
  ?verified:bool ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  p_al:Policy.t ->
  unit ->
  epoch_report
(** One epoch over a policy: {!Filter.run}, {!Extract_patterns}, Prune,
    acceptance, and bag coverage before and after over P_AL's projection
    onto the pattern attributes.  This is the reference {!run_trail_epoch}
    must agree with.
    [completeness] (default 1.0) is the fraction of the audit window that
    was actually consolidated; below 1.0 the report's coverage readings are
    labelled {!Coverage.Lower_bound}.  [verified] (default [true]) states
    whether the trail itself is trustworthy; [false] — e.g. crash recovery
    dropped an unverifiable WAL tail — forces the lower-bound label even at
    completeness 1.0. *)

val run_trail_epoch :
  ?config:config ->
  ?completeness:float ->
  ?verified:bool ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  Trail.t ->
  epoch_report
(** {!run_epoch} over a coded trail, equal to
    [run_epoch ~p_al:(Trail.policy trail)] field for field, ordered
    [patterns] and [uncovered] lists included.  Filter and Algorithm 5
    run as one pass over the codes ({!Trail.frequent_groups}) when all of
    these hold: [config.limits] is [None]; the backend is [Sql c] with
    [c.attributes] equal to the pattern attributes as a set; [c.condition]
    is [None] or {!Data_analysis.default_config}'s; and the trail is
    {!Trail.regular}.  Any other epoch — governed, another [HAVING]
    condition, the mining backend, hand-built partial rules — runs the
    reference Filter and extraction over {!Trail.policy}.  Coverage reads
    the codes either way. *)

val fuses : config -> Trail.t -> bool
(** Whether {!run_trail_epoch} takes the fused pass for this config and
    trail. *)

val run_epochs :
  ?config:config ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  batches:Policy.t list ->
  unit ->
  epoch_report list * Policy.t
(** Iterated refinement over audit batches: each epoch extends the store
    and the next batch is judged against the refined store — the Figure 2
    trajectory.  Returns the per-epoch reports and the final store. *)
