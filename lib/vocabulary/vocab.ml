(* A privacy policy vocabulary V: one taxonomy per policy attribute.  The
   vocabulary is what makes grounding (Definition 3) well defined.

   Grounding is the inner loop of ComputeCoverage and Prune, so the two
   per-value queries it keeps answering — [ground_set] and [is_ground] —
   are memoized in per-vocabulary hashtables keyed by (attr, value).
   Vocabulary values are immutable: [add] returns a *new* vocabulary with
   fresh (empty) caches and a fresh [stamp], so a mutation can never serve
   stale cache entries.  The [stamp] uniquely identifies a vocabulary value
   for the lifetime of the process and lets downstream caches (the rule
   grounding cache in [Prima_core.Rule]) key their entries by vocabulary
   without retaining it. *)

module String_map = Map.Make (String)

type t = {
  stamp : int;
  taxonomies : Taxonomy.t String_map.t;
  ground_sets : (string * string, string list) Hashtbl.t;
  ground_flags : (string * string, bool) Hashtbl.t;
}

exception Unknown_attribute of string
exception Duplicate_attribute of string

let next_stamp =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let of_map taxonomies =
  { stamp = next_stamp ();
    taxonomies;
    ground_sets = Hashtbl.create 256;
    ground_flags = Hashtbl.create 256;
  }

let empty = of_map String_map.empty

let stamp t = t.stamp

let add t taxonomy =
  let attr = Taxonomy.attr taxonomy in
  if String_map.mem attr t.taxonomies then raise (Duplicate_attribute attr)
  else of_map (String_map.add attr taxonomy t.taxonomies)

let of_taxonomies taxonomies = List.fold_left add empty taxonomies

(* Grow one taxonomy leaf, functionally: the result is a fresh vocabulary
   value with empty caches and a fresh stamp, so every downstream cache
   keyed by the old stamp goes cold atomically when a caller adopts it. *)
let with_leaf t ~attr ~parent ~value =
  match String_map.find_opt attr t.taxonomies with
  | None -> raise (Unknown_attribute attr)
  | Some tax ->
    of_map (String_map.add attr (Taxonomy.with_leaf tax ~parent ~value) t.taxonomies)

let attributes t = List.map fst (String_map.bindings t.taxonomies)

let taxonomy t attr =
  match String_map.find_opt attr t.taxonomies with
  | Some tax -> tax
  | None -> raise (Unknown_attribute attr)

let taxonomy_opt t attr = String_map.find_opt attr t.taxonomies

let mem_value t ~attr ~value =
  match String_map.find_opt attr t.taxonomies with
  | Some tax -> Taxonomy.mem tax value
  | None -> false

(* Grounding treats values of attributes outside the vocabulary (e.g. the
   audit log's user names and timestamps) as already ground: the vocabulary
   cannot refine what it does not describe. *)
(* The memo-free paths are exposed for the differential-testing oracle and
   benchmark baselines: they recompute the taxonomy walk per call, exactly
   as the seed did. *)
let is_ground_uncached t ~attr ~value =
  match String_map.find_opt attr t.taxonomies with
  | Some tax -> if Taxonomy.mem tax value then Taxonomy.is_ground tax value else true
  | None -> true

let is_ground t ~attr ~value =
  let key = (attr, value) in
  match Hashtbl.find_opt t.ground_flags key with
  | Some flag -> flag
  | None ->
    let flag = is_ground_uncached t ~attr ~value in
    Hashtbl.add t.ground_flags key flag;
    flag

let ground_set_uncached t ~attr ~value =
  match String_map.find_opt attr t.taxonomies with
  | Some tax when Taxonomy.mem tax value -> Taxonomy.leaves_under tax value
  | Some _ | None -> [ value ]

let ground_set t ~attr ~value =
  let key = (attr, value) in
  match Hashtbl.find_opt t.ground_sets key with
  | Some values -> values
  | None ->
    let values = ground_set_uncached t ~attr ~value in
    Hashtbl.add t.ground_sets key values;
    values

let equivalent_values t ~attr v1 v2 =
  match String_map.find_opt attr t.taxonomies with
  | Some tax when Taxonomy.mem tax v1 && Taxonomy.mem tax v2 ->
    Taxonomy.equivalent tax v1 v2
  | Some _ | None -> String.equal v1 v2

let subsumes_value t ~attr ~ancestor ~descendant =
  match String_map.find_opt attr t.taxonomies with
  | Some tax when Taxonomy.mem tax ancestor && Taxonomy.mem tax descendant ->
    Taxonomy.subsumes tax ~ancestor ~descendant
  | Some _ | None -> String.equal ancestor descendant

let cardinality t =
  String_map.fold (fun _ tax acc -> acc + Taxonomy.size tax) t.taxonomies 0

let pp ppf t =
  String_map.iter (fun _ tax -> Taxonomy.pp ppf tax) t.taxonomies
