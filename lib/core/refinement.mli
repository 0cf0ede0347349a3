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
}

val default_config : config
(** SQL backend with the paper's defaults, prohibitions dropped,
    accept-all. *)

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
      (** [Exact] when the epoch's evidence carries no reason; otherwise
          [Lower_bound] with the caller's reasons, plus
          {!Coverage.Budget_truncated} when extraction exceeded its budget
          and [patterns] covers only a prefix of the practice table *)
  budget_stats : Relational.Errors.budget_stats;
      (** resources the extraction query consumed (zeros when ungoverned) *)
}

val run_epoch :
  ?config:config ->
  ?limits:Relational.Budget.limits ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  p_al:Policy.t ->
  unit ->
  epoch_report
(** One epoch over a policy: {!Filter.run}, {!Extract_patterns}, Prune,
    acceptance, and bag coverage before and after over P_AL's projection
    onto the pattern attributes.  This is the reference {!run_trail_epoch}
    must agree with.  [limits] budgets the pattern-extraction query
    (default: ungoverned); when it fires, extraction degrades to a
    lower-bound pattern set.  P_AL is taken as complete: the qualifier is
    [Exact] unless extraction hit its budget, and then carries
    {!Coverage.Budget_truncated}. *)

val run_trail_epoch :
  ?config:config ->
  ?limits:Relational.Budget.limits ->
  ?evidence:Coverage.evidence ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  Trail.t ->
  epoch_report
(** {!run_epoch} over a coded trail, equal to
    [run_epoch ~p_al:(Trail.policy trail)] field for field, ordered
    [patterns] and [uncovered] lists included.  [evidence] (default
    {!Coverage.exact}) is what the caller knows about the trail — a
    partial or unverified window, a brownout; the epoch adds
    {!Coverage.Budget_truncated} to it when extraction degrades.  Filter
    and Algorithm 5 run as one pass over the codes
    ({!Trail.frequent_groups}) when all of these hold: [limits] is
    [None]; the backend is [Sql c] with
    [c.attributes] equal to the pattern attributes as a set; [c.condition]
    is [None] or {!Data_analysis.default_config}'s; and the trail is
    {!Trail.regular}.  Any other epoch — governed, another [HAVING]
    condition, the mining backend, hand-built partial rules — runs the
    reference Filter and extraction over {!Trail.policy}.  Coverage reads
    the codes either way. *)

val fuses : config -> Trail.t -> bool
(** Whether an ungoverned {!run_trail_epoch} takes the fused pass for this
    config and trail. *)

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
