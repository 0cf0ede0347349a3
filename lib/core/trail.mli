(** P_AL, coded.

    Each entry is held as the code of its pattern group (the distinct
    (data, purpose, authorized) projection, held once).  Its user and
    {!Filter}'s two predicates go into the group's running counters.  The
    seven-term rules are built only when {!policy} asks for them.

    The readings carry their state forward as the trail grows:
    {!append} keeps running counters per group, and coverage caches its
    per-group verdicts for one store under one vocabulary.  So Filter,
    the default [GROUP BY] of Algorithm 5 and both coverage readings cost
    O(entries appended since the last reading + pattern groups), plus a
    copy of the bag [uncovered] listing whenever new entries extend it
    and one walk of every entry under a new store or vocabulary; the
    number of groups is bounded by the vocabulary's data × purpose ×
    authorized leaves, not by the number of entries.

    A trail only grows; drop it and start a new one to discard entries. *)

type t

val create : unit -> t

type entry = {
  pattern : Rule.t option;
      (** the entry's projection onto {!Vocabulary.Audit_attrs.pattern};
          [None] when it has no pattern term *)
  user : string option;  (** its user, when it has exactly one user term *)
  exception_based : bool;  (** {!Filter.is_exception} *)
  prohibition : bool;  (** {!Filter.is_prohibition} *)
}
(** One entry, by column. *)

val entry_of_rule : Rule.t -> entry

val append : t -> rules:Rule.t list Lazy.t -> ('a -> entry) -> 'a list -> unit
(** [append t ~rules code items] codes each item and appends it.  [rules]
    must be the same items as rules, in order; it is forced only by
    {!policy}.  An empty [items] leaves [t] as it was. *)

val append_rules : t -> Rule.t list -> unit
(** [append] of the rules themselves, coded by {!entry_of_rule}. *)

val length : t -> int
(** Entries appended so far. *)

val policy : t -> Policy.t
(** The trail as P_AL: every appended rule, in order.  Forces the chunks
    appended since the last call and extends the previous result with
    them, so its rules are the same values from one call to the next. *)

val regular : t -> bool
(** Every entry has exactly one term for each pattern attribute and one
    for [user], as audit entries always do. *)

val frequent_groups :
  t ->
  keep_prohibitions:bool ->
  frequent:(int -> bool) ->
  distinct_users:bool ->
  int * Rule.t list
(** Filter (Algorithm 3) fused with Algorithm 5's default [GROUP BY] over
    the pattern attributes, in one pass: the number of practice entries,
    and the pattern groups whose practice-entry count is [frequent] and,
    when [distinct_users], which span more than one user.  Groups come out
    in the order their first practice entry appears, the order the SQL
    engine's [GROUP BY] emits them.  A scan over the groups' running
    counters, which {!append} keeps for both settings of
    [keep_prohibitions].
    @raise Invalid_argument unless the trail is {!regular}. *)

val coverage : Vocabulary.Vocab.t -> t -> p_x:Policy.t -> Coverage.stats
(** Set semantics: {!Coverage.compute} of [p_x] over the distinct pattern
    groups, which have the same range as P_AL's projection.  The reading
    is cached with the verdicts below and stands until a new group
    appears. *)

val coverage_bag : Vocabulary.Vocab.t -> t -> p_x:Policy.t -> Coverage.stats
(** Bag semantics: equal to {!Coverage.compute_bag} of [p_x] over P_AL's
    projection, [uncovered] listing one rule per uncovered entry in P_AL
    order.

    The trail caches one vector of per-group verdicts, keyed by
    {!Vocabulary.Vocab.stamp} and [p_x]'s rules (compared with
    {!Rule.equal}, so a store projected anew on every call still hits).
    Overlap and denominator are sums of per-group entry totals; the
    cached [uncovered] is extended by the entries appended since, and is
    rebuilt from every entry when the key changes. *)
