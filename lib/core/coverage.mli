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

(** {1 Qualified readings}

    A reading over a complete, verified P_AL is [Exact].  Anything else
    only bounds coverage from below, and carries the evidence why: each
    layer that can lose or truncate part of the trail emits its own
    reasons, and only {!qualify} turns them into a qualifier. *)

type reason =
  | Site_dark of { site : string; lag : int }
      (** the site was skipped, or served stale, with [lag > 0] entries
          missing from the window *)
  | Quarantined of int  (** ingest plus transit quarantine, [> 0] *)
  | Wal_tail_lost of string
      (** that log recovered only a verified prefix: a tail was dropped, or
          CRC-valid records no longer decode *)
  | Tampered of { log : string; offset : int }
      (** that log's recovery found tampering at [offset] *)
  | Shard_degraded of { site : string; shards : int }
      (** [shards] of the site's archive shards are torn or tampered *)
  | Budget_truncated of Relational.Errors.budget_stats
      (** pattern extraction hit its resource budget and ran over a prefix
          of the practice table *)
  | Brownout  (** the epoch ran under a brownout admission grant *)

type evidence = {
  completeness : float;
      (** the fraction of the audit window that arrived, in [0, 1]: below
          1.0 exactly when a [Site_dark] or [Quarantined] reason is
          present *)
  reasons : reason list;
}

val exact : evidence
(** Completeness 1.0, no reason: the unit of {!join}. *)

val join : evidence -> evidence -> evidence
(** The minimum completeness and the reasons of both, in order. *)

type qualifier =
  | Exact
  | Lower_bound of evidence  (** with a non-empty [reasons] list *)

type qualified = {
  stats : stats;
  qualifier : qualifier;
}
(** A coverage measurement together with the evidence it was computed
    from.  A measurement over a partial or unverified P_AL is only a
    statement about the entries that arrived: it is a lower bound, and
    must never drive pruning decisions — a pattern can look "already
    covered" only because its counter-evidence is missing. *)

val qualify : evidence -> stats -> qualified
(** [Exact] when the evidence has no reason, [Lower_bound evidence]
    otherwise. *)

val is_exact : qualified -> bool

val reasons : qualifier -> reason list
(** [[]] for [Exact], the evidence's reasons otherwise. *)

val pp_reason : Format.formatter -> reason -> unit

val pp_qualifier : Format.formatter -> qualifier -> unit
(** e.g. ["lower bound (completeness 83.3%): site-1 dark, 5 entries missing"]. *)
