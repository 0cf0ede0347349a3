(** Items and itemsets for frequent-pattern mining.

    An item is an (attribute, value) pair — e.g. (data, referral) —
    interned to a dense integer id, so itemsets are strictly increasing int
    arrays with cheap hashing. *)

type item = {
  attr : string;
  value : string;
}

type interner

val create_interner : unit -> interner

val intern : interner -> item -> int
(** Stable: the same item always gets the same id. *)

val item_of_id : interner -> int -> item
(** @raise Invalid_argument on unknown ids. *)

val universe_size : interner -> int

type t = int array
(** Invariant: strictly increasing ids. *)

val of_list : int list -> t
(** Sorts and deduplicates. *)

val to_list : t -> int list
val size : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val subset : t -> t -> bool
(** [subset a b]: is [a] ⊆ [b]?  Linear merge. *)

val mem : t -> int -> bool
val union : t -> t -> t

val diff : t -> t -> t
(** Items of the first not in the second. *)

val immediate_subsets : t -> t list
(** All subsets of size n-1 (drop each element in turn). *)

val pp : interner -> Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
