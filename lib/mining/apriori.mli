(** Apriori (Agrawal & Srikant, VLDB 1994) — the frequent-itemset algorithm
    the paper proposes for its future-work pattern extraction.

    Classic levelwise search: L1 from item frequencies, candidate
    generation by joining k-itemsets sharing a (k-1)-prefix, subset-based
    pruning, and a counting pass per level. *)

type frequent = {
  itemset : Itemset.t;
  support : int;  (** absolute *)
}

val join : Itemset.t -> Itemset.t -> Itemset.t option
(** The join step: two sorted k-itemsets sharing their first k-1 items
    produce a (k+1)-candidate; exposed for testing. *)

val mine : ?max_size:int -> Transactions.t -> min_support:int -> frequent list
(** All frequent itemsets with absolute support >= [min_support], level by
    level; [max_size] bounds itemset size.
    @raise Invalid_argument when [min_support <= 0]. *)

val maximal : frequent list -> frequent list
(** Only the maximal frequent itemsets (no frequent superset). *)
