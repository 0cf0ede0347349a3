(** Range (Definition 8): the set of all ground rules derivable from a
    policy under the vocabulary.

    Equivalent ground rules of equal cardinality are syntactically equal
    after canonicalisation, so the Definition 6 intersection of Algorithm 1
    reduces to structural set operations — here performed on a hash set
    keyed by the rules' precomputed hashes.  Ranges are observably
    immutable: every operation returns a fresh value.

    The test-support [Range_reference] keeps the seed's [Set]-based
    implementation as the differential-testing oracle. *)

type t

val empty : t
val of_rules : Vocabulary.Vocab.t -> Rule.t list -> t
val of_policy : Vocabulary.Vocab.t -> Policy.t -> t

val cardinality : t -> int
(** #Range of Definition 8. *)

val mem : Rule.t -> t -> bool
(** Membership of a (canonical, ground) rule.  O(1). *)

val inter : t -> t -> t
val diff : t -> t -> t
val union : t -> t -> t
val subset : t -> t -> bool

val elements : t -> Rule.t list
(** Sorted by {!Rule.compare} (the seed Set's order), so listings are
    deterministic. *)

val is_empty : t -> bool

val fold : (Rule.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the ground rules in unspecified order. *)

val covers : Vocabulary.Vocab.t -> t -> Rule.t -> bool
(** Every ground instance of the rule lies in the range. *)

val intersects : Vocabulary.Vocab.t -> t -> Rule.t -> bool
(** Some ground instance of the rule lies in the range. *)

val pp : Format.formatter -> t -> unit
