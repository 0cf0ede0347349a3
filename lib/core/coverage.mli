(** ComputeCoverage (Definition 9 / Algorithm 1).

    Coverage of P_x in relation to P_y is
    [#(Range(P_x) ∩ Range(P_y)) / #Range(P_y)].

    Two denominators coexist in the paper and both are provided:
    {!compute} is Definition 9 verbatim (ranges are sets — Figure 3's
    3/6 = 50 %); {!compute_bag} counts each rule occurrence of P_y, which
    is how Section 5 arrives at 3/10 = 30 % for Table 1. *)

type stats = {
  overlap : int;  (** numerator *)
  denominator : int;
  coverage : float;  (** 1.0 when the denominator is 0 (vacuous) *)
  uncovered : Rule.t list;  (** the rules of P_y driving the gap *)
}

val ratio : int -> int -> float
(** [ratio overlap denominator], 1.0 when the denominator is 0. *)

val compute : ?uncovered:bool -> Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> stats
(** Algorithm 1, set semantics.  Policies over different attribute sets
    never intersect (Definition 6 compares cardinalities) — align them with
    {!Policy.project} or use {!aligned}.

    [uncovered] (default [true]) controls whether the uncovered listing is
    produced.  With [~uncovered:false] the [uncovered] field is [[]] and
    Range(P_y) is only counted, never materialised
    ({!Range.cardinality_of_rules}) — the fast path for monitoring loops
    that only read the ratio. *)

val compute_bag : Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> stats
(** Bag semantics over P_y's rule sequence: a rule occurrence is covered
    when its whole ground set lies in Range(P_x). *)

val aligned :
  ?bag:bool ->
  ?uncovered:bool ->
  Vocabulary.Vocab.t ->
  attrs:string list ->
  p_x:Policy.t ->
  p_y:Policy.t ->
  stats
(** Projects both policies onto [attrs] first, then computes coverage
    ([bag] defaults to false; [uncovered] as in {!compute}, ignored under
    bag semantics where the partition is a by-product). *)

val complete : Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> bool
(** Definition 10: Range(P_y) ⊆ Range(P_x). *)

val pp_stats : Format.formatter -> stats -> unit
(** e.g. ["coverage = 3/10 = 30%"]. *)

type qualifier =
  | Exact
  | Lower_bound of float
      (** the completeness fraction of the audit window, in [0, 1) *)

type qualified = {
  stats : stats;
  qualifier : qualifier;
}
(** A coverage measurement together with how much of the audit trail it was
    computed from.  A measurement over a partial P_AL (sites skipped,
    records quarantined) is only a statement about the entries that
    arrived: it is a lower bound, and must never drive pruning decisions —
    a pattern can look "already covered" only because its counter-evidence
    is missing. *)

val qualify : ?verified:bool -> completeness:float -> stats -> qualified
(** [Exact] when [completeness >= 1.0] and the trail is [verified]
    (default); [Lower_bound completeness] otherwise.  Pass
    [~verified:false] when the trail itself is suspect — e.g. crash
    recovery dropped an unverifiable WAL tail — to force the lower-bound
    label even over a nominally complete window. *)

val is_exact : qualified -> bool
val pp_qualifier : Format.formatter -> qualifier -> unit

val pp_qualified : Format.formatter -> qualified -> unit
(** e.g. ["coverage >= 3/10 = 30% (partial trail, completeness 83.3%)"]. *)
