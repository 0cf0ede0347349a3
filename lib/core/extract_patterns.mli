(** extractPatterns (Algorithm 4): set the analysis parameters and delegate
    to a data-analysis backend.

    The backend interface is deliberately pluggable — the paper notes it
    "allows the extractPatterns algorithm to evolve".  Besides the SQL
    backend of Algorithm 5 there is the frequent-pattern-mining backend the
    paper proposes as future work ([18]), which also finds cross-attribute
    correlations a fixed GROUP BY cannot. *)

type backend =
  | Sql of Data_analysis.config
  | Mining of mining_config

and mining_config = {
  attributes : string list;
  min_support : int;  (** absolute support, playing f's role *)
  distinct_users : bool;  (** require support spanning more than one user *)
  algorithm : [ `Apriori | `Fp_growth ];
}

val default_mining : mining_config
(** Pattern attributes, support 5, distinct users required, Apriori. *)

val default_backend : backend
(** The SQL backend with {!Data_analysis.default_config}. *)

val to_transactions : string list -> Policy.t -> Mining.Transactions.t
(** One transaction per practice rule, restricted to the given attributes. *)

val users_supporting : Policy.t -> Rule.t -> string list
(** Distinct users whose practice entries match the pattern. *)

val run : ?backend:backend -> Policy.t -> Rule.t list
(** The candidate patterns found in the practice entries. *)

val run_governed :
  ?backend:backend ->
  limits:Relational.Budget.limits ->
  Policy.t ->
  Data_analysis.governed
(** Budgeted {!run}: the SQL backend executes under the resource governor
    and degrades to a lower-bound pattern set when the budget fires; the
    in-memory mining backend is not governed and always returns an exact
    result. *)

val correlations :
  ?attributes:string list ->
  ?min_support:int ->
  ?min_confidence:float ->
  Policy.t ->
  Mining.Itemset.interner * Mining.Assoc_rules.rule list
(** Association rules across attribute pairs — the "bit more sophisticated
    inference" of the paper's future work.  Sorted by confidence. *)
