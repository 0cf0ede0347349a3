(* Definition 5: a Rule is a conjunction of RuleTerms.  Terms are kept
   sorted by (attr, value) so structurally equal ground rules compare equal,
   which makes range sets (Definition 8) well defined.

   Rules carry a precomputed structural hash (folded over the interned
   terms' hashes), so hashing is O(1) and equality rejects mismatches in
   O(1) — the operations the hash-based [Range] performs per ground rule.
   Grounding (Corollary 1) is additionally memoized per (vocabulary, rule):
   audit-log policies repeat the same composite rules thousands of times,
   and the refinement loop grounds the same policy store every epoch. *)

type t = {
  terms : Rule_term.t list;
  hash : int;
}

let combine_hash h1 h2 = (h1 * 0x01000193) lxor h2

let hash_terms terms =
  List.fold_left (fun acc term -> combine_hash acc (Rule_term.hash term)) 0x811c9dc5 terms

let of_terms terms = { terms; hash = hash_terms terms }

let make terms : t =
  if terms = [] then invalid_arg "Rule.make: a rule needs at least one term";
  of_terms (List.sort_uniq Rule_term.compare terms)

let of_assoc pairs = make (List.map (fun (attr, value) -> Rule_term.make ~attr ~value) pairs)

let to_assoc t = List.map (fun term -> (Rule_term.attr term, Rule_term.value term)) t.terms

let terms t = t.terms

(* #R of Definition 5. *)
let cardinality t = List.length t.terms

let hash t = t.hash

let compare a b =
  if a == b then 0 else List.compare Rule_term.compare a.terms b.terms

(* O(1) on the fast path: pointer equality accepts, hash inequality
   rejects; only hash collisions walk the (already sorted) term lists. *)
let equal a b =
  a == b || (a.hash = b.hash && List.equal Rule_term.equal_syntactic a.terms b.terms)

let equal_syntactic = equal

let find_attr t attr =
  List.find_opt (fun term -> String.equal (Rule_term.attr term) attr) t.terms
  |> Option.map Rule_term.value

(* Restriction of the rule to the given attributes, e.g. projecting a
   seven-term audit rule onto (data, purpose, authorized).  None when no
   term survives.  A sublist of sorted, distinct terms is itself sorted and
   distinct, so the survivors need no re-canonicalisation. *)
let project t ~attrs =
  match List.filter (fun term -> List.mem (Rule_term.attr term) attrs) t.terms with
  | [] -> None
  | survivors -> Some (of_terms survivors)

let is_ground vocab t = List.for_all (Rule_term.is_ground vocab) t.terms

(* Corollary 1: the ground rules derivable from this rule — the cartesian
   product of its terms' ground sets.  Product elements go back through
   [make]: a rule may carry several terms over the same attribute whose
   ground sets overlap, so canonicalisation (sort + dedup) is still
   required. *)
let product_of_ground_sets per_term =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun term -> List.map (fun rest -> term :: rest) acc) choices)
    per_term [ [] ]
  |> List.map make

(* The memo-free path, faithful to the seed: per-call taxonomy walks
   ([Vocab.ground_set_uncached]), no rule-level cache.  Kept as the oracle
   for differential tests and the benchmark baseline. *)
let ground_rules_uncached vocab t : t list =
  product_of_ground_sets
    (List.map
       (fun term ->
         List.map
           (fun value -> Rule_term.make ~attr:(Rule_term.attr term) ~value)
           (Vocabulary.Vocab.ground_set_uncached vocab ~attr:(Rule_term.attr term)
              ~value:(Rule_term.value term)))
       t.terms)

(* Memo table for grounding, keyed by (vocabulary stamp, rule).  Stamps are
   process-unique and a new vocabulary always carries a new stamp, so stale
   entries are unreachable (see Vocab).  The table is reset wholesale when
   it outgrows [ground_cache_limit] — a crude bound that keeps entries for
   dead vocabularies from accumulating without a weak-reference scheme. *)
module Ground_cache = Hashtbl.Make (struct
  type nonrec t = int * t

  let equal (stamp_a, rule_a) (stamp_b, rule_b) = stamp_a = stamp_b && equal rule_a rule_b
  let hash (stamp, rule) = combine_hash stamp rule.hash
end)

let ground_cache : t list Ground_cache.t = Ground_cache.create 4096
let ground_cache_limit = 1 lsl 16

(* One O(1) memo probe per rule occurrence — audit policies repeat the
   same (mostly ground) rules thousands of times, so even the ground
   short-circuit is worth caching rather than re-testing per term. *)
let ground_rules vocab t : t list =
  let key = (Vocabulary.Vocab.stamp vocab, t) in
  match Ground_cache.find_opt ground_cache key with
  | Some ground -> ground
  | None ->
    let ground =
      if is_ground vocab t then [ t ]
      else product_of_ground_sets (List.map (Rule_term.ground_set vocab) t.terms)
    in
    if Ground_cache.length ground_cache >= ground_cache_limit then
      Ground_cache.reset ground_cache;
    Ground_cache.add ground_cache key ground;
    ground

(* Definition 6: same cardinality, and every term of [a] is equivalent to
   some term of [b]. *)
let equivalent vocab a b =
  cardinality a = cardinality b
  && List.for_all (fun x -> List.exists (Rule_term.equivalent vocab x) b.terms) a.terms

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any " @<1>∧ ") Rule_term.pp) t.terms

let to_string t = Fmt.str "%a" pp t

(* Compact rendering in the paper's use-case notation, e.g.
   "Referral:Registration:Nurse" for the pattern attributes. *)
let to_compact_string ?attrs t =
  let values =
    match attrs with
    | Some attrs -> List.filter_map (find_attr t) attrs
    | None -> List.map Rule_term.value t.terms
  in
  String.concat ":" values
