(* Algorithm 4: extractPatterns(P, V).

   Sets the analysis parameters (attribute projection A, threshold
   frequency f, condition c) and delegates to the data-analysis routine.
   The routine's interface is deliberately pluggable — the paper notes it
   "allows the extractPatterns algorithm to evolve"; besides the SQL
   backend of Algorithm 5 we provide the frequent-pattern-mining backend
   ([18], the paper's future work) which also finds cross-attribute
   correlations the fixed GROUP BY cannot. *)

type backend =
  | Sql of Data_analysis.config
  | Mining of mining_config

and mining_config = {
  attributes : string list;
  min_support : int;
  distinct_users : bool; (* require the support to span more than one user *)
  algorithm : [ `Apriori | `Fp_growth ];
}

let default_mining =
  { attributes = Vocabulary.Audit_attrs.pattern;
    min_support = 5;
    distinct_users = true;
    algorithm = `Apriori;
  }

let default_backend = Sql Data_analysis.default_config

(* Transactions for the miner: one per practice rule, restricted to the
   analysis attributes (user kept aside for the distinct-user condition). *)
let to_transactions attributes (practice : Policy.t) =
  let items_of rule =
    Rule.to_assoc rule
    |> List.filter (fun (attr, _) -> List.mem attr attributes)
    |> List.map (fun (attr, value) -> { Mining.Itemset.attr; value })
  in
  Mining.Transactions.of_item_lists (List.map items_of (Policy.rules practice))

let users_supporting (practice : Policy.t) (pattern : Rule.t) =
  let pattern_assoc = Rule.to_assoc pattern in
  Policy.rules practice
  |> List.filter_map (fun rule ->
         let assoc = Rule.to_assoc rule in
         let matches =
           List.for_all (fun (a, v) -> List.assoc_opt a assoc = Some v) pattern_assoc
         in
         if matches then List.assoc_opt Vocabulary.Audit_attrs.user assoc else None)
  |> List.sort_uniq String.compare

let run_mining config (practice : Policy.t) : Rule.t list =
  let tx = to_transactions config.attributes practice in
  let frequents =
    match config.algorithm with
    | `Apriori -> Mining.Apriori.mine tx ~min_support:config.min_support
    | `Fp_growth -> Mining.Fp_growth.mine tx ~min_support:config.min_support
  in
  (* Full-width itemsets correspond to the GROUP BY patterns of the SQL
     backend: one item per analysis attribute. *)
  let width = List.length config.attributes in
  let interner = Mining.Transactions.interner tx in
  frequents
  |> List.filter (fun (f : Mining.Apriori.frequent) -> Mining.Itemset.size f.itemset = width)
  |> List.map (fun (f : Mining.Apriori.frequent) ->
         Rule.make
           (List.map
              (fun id ->
                let item = Mining.Itemset.item_of_id interner id in
                Rule_term.make ~attr:item.Mining.Itemset.attr ~value:item.Mining.Itemset.value)
              (Mining.Itemset.to_list f.itemset)))
  |> List.filter (fun pattern ->
         (not config.distinct_users) || List.length (users_supporting practice pattern) > 1)

(* [run ?backend practice] returns the candidate patterns found in the
   practice entries. *)
let run ?(backend = default_backend) (practice : Policy.t) : Rule.t list =
  match backend with
  | Sql config -> Data_analysis.analyse ~config practice
  | Mining config -> run_mining config practice

(* Budgeted variant: the SQL backend runs under the governor and degrades
   to a lower-bound pattern set when the budget fires (see
   {!Data_analysis.run_governed}).  The mining backend works in-memory
   outside the relational engine, so it is not governed: its result is
   always exact. *)
let run_governed ?(backend = default_backend) ~limits (practice : Policy.t) :
    Data_analysis.governed =
  match backend with
  | Sql config -> Data_analysis.analyse_governed ~config ~limits practice
  | Mining config -> Data_analysis.exact (run_mining config practice)

(* Beyond patterns: association rules across attribute pairs — the "bit more
   sophisticated inference" of Section 5's future work.  Returns rules with
   their confidence. *)
let correlations ?(attributes = Vocabulary.Audit_attrs.pattern) ?(min_support = 5)
    ?(min_confidence = 0.8) (practice : Policy.t) =
  let tx = to_transactions attributes practice in
  let frequents = Mining.Apriori.mine tx ~min_support in
  let rules = Mining.Assoc_rules.derive tx frequents ~min_confidence in
  (Mining.Transactions.interner tx, Mining.Assoc_rules.sort_by_confidence rules)
