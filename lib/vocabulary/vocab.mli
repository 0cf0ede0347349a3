(** Privacy policy vocabulary: the set of attribute taxonomies against which
    policies are grounded and compared (the [V] of Algorithms 1–6).

    Attributes that are not described by the vocabulary — the audit log's
    [user], [time], [op] and [status] fields — are treated as flat domains:
    every value is its own ground set and equivalence is string equality.

    {!ground_set} and {!is_ground} are memoized per [(attr, value)].
    Vocabulary values are immutable — {!add} returns a fresh vocabulary with
    empty caches and a fresh {!stamp} — so cached answers can never go
    stale. *)

type t

exception Unknown_attribute of string
exception Duplicate_attribute of string

val empty : t

val stamp : t -> int
(** Process-unique identity of this vocabulary value.  Every construction
    ({!empty}, {!add}, {!of_taxonomies}) yields a fresh stamp; downstream
    caches key memoized grounding results by it. *)

val add : t -> Taxonomy.t -> t
(** @raise Duplicate_attribute when the taxonomy's attribute is present. *)

val of_taxonomies : Taxonomy.t list -> t

val with_leaf : t -> attr:string -> parent:string -> value:string -> t
(** A fresh vocabulary equal to [t] with one new ground value under
    [parent] in [attr]'s taxonomy ({!Taxonomy.with_leaf}) — empty caches,
    fresh {!stamp}, so downstream grounding caches keyed by the old stamp
    go cold atomically when the result is adopted.
    @raise Unknown_attribute when [attr] is absent.
    @raise Taxonomy.Unknown_value / [Taxonomy.Duplicate_value] as
    {!Taxonomy.with_leaf}. *)

val attributes : t -> string list
(** Attribute names, sorted. *)

val taxonomy : t -> string -> Taxonomy.t
(** @raise Unknown_attribute when absent. *)

val taxonomy_opt : t -> string -> Taxonomy.t option

val mem_value : t -> attr:string -> value:string -> bool
(** Whether the vocabulary explicitly describes [value] for [attr]. *)

val is_ground : t -> attr:string -> value:string -> bool
(** Definition 2 lifted to the vocabulary; values of attributes (or values)
    outside the vocabulary are ground by convention. *)

val ground_set : t -> attr:string -> value:string -> string list
(** The set [RT'] of Definition 2 for one attribute value.  Memoized. *)

val is_ground_uncached : t -> attr:string -> value:string -> bool
val ground_set_uncached : t -> attr:string -> value:string -> string list
(** Memo-free variants that re-walk the taxonomy per call — the seed's
    behaviour, kept for the differential-testing oracle
    (the test-support [Range_reference]) and benchmark baselines. *)

val equivalent_values : t -> attr:string -> string -> string -> bool
(** Definition 4 for one attribute: ground sets intersect. *)

val subsumes_value : t -> attr:string -> ancestor:string -> descendant:string -> bool

val cardinality : t -> int
(** Total number of vocabulary values across all taxonomies. *)

val pp : Format.formatter -> t -> unit
