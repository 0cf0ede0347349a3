(* Definition 8: the range of a policy is the set of all ground rules
   derivable from its rules under the vocabulary.  Represented as a hash
   set of canonicalised ground rules keyed by the rules' precomputed
   hashes, so building a range is O(1) amortised per ground rule and the
   Definition 6 intersection of Algorithm 1 reduces to hash lookups —
   against the seed's balanced set this removes a log factor *and* the
   per-comparison term-list walks.

   Ranges are observably immutable: every operation builds a fresh table
   and no function ever mutates an argument after it escapes, so values
   can be shared freely (the [empty] constant relies on this).
   The test-support [Range_reference] preserves the seed implementation;
   the parity property suite asserts both agree exactly. *)

module Rule_tbl = Hashtbl.Make (struct
  type t = Rule.t

  let equal = Rule.equal
  let hash = Rule.hash
end)

type t = unit Rule_tbl.t

let empty : t = Rule_tbl.create 1

let of_rules vocab rules : t =
  let tbl = Rule_tbl.create (max 64 (List.length rules)) in
  List.iter
    (fun rule ->
      List.iter (fun g -> Rule_tbl.replace tbl g ()) (Rule.ground_rules vocab rule))
    rules;
  tbl

let of_policy vocab policy : t = of_rules vocab (Policy.rules policy)

let cardinality = Rule_tbl.length

let mem rule t = Rule_tbl.mem t rule

let is_empty t = Rule_tbl.length t = 0

(* Intersection iterates the smaller side and probes the larger. *)
let inter a b : t =
  let small, large = if cardinality a <= cardinality b then (a, b) else (b, a) in
  let tbl = Rule_tbl.create (cardinality small) in
  Rule_tbl.iter (fun rule () -> if Rule_tbl.mem large rule then Rule_tbl.replace tbl rule ()) small;
  tbl

let diff a b : t =
  let tbl = Rule_tbl.create (max 1 (cardinality a)) in
  Rule_tbl.iter (fun rule () -> if not (Rule_tbl.mem b rule) then Rule_tbl.replace tbl rule ()) a;
  tbl

let union a b : t =
  let tbl = Rule_tbl.create (cardinality a + cardinality b) in
  Rule_tbl.iter (fun rule () -> Rule_tbl.replace tbl rule ()) a;
  Rule_tbl.iter (fun rule () -> Rule_tbl.replace tbl rule ()) b;
  tbl

exception Not_subset

let subset a b =
  cardinality a <= cardinality b
  && (try
        Rule_tbl.iter (fun rule () -> if not (Rule_tbl.mem b rule) then raise Not_subset) a;
        true
      with Not_subset -> false)

(* Sorted by Rule.compare, matching the seed's Set ordering, so listings
   (e.g. Coverage's uncovered rules) stay deterministic. *)
let elements t =
  Rule_tbl.fold (fun rule () acc -> rule :: acc) t [] |> List.sort Rule.compare

let fold f t init = Rule_tbl.fold (fun rule () acc -> f rule acc) t init

(* Is every ground instance of [rule] inside the range?  Membership test
   lifted to possibly-composite rules. *)
let covers vocab t rule = List.for_all (fun g -> mem g t) (Rule.ground_rules vocab rule)

(* Does any ground instance of [rule] fall inside the range? *)
let intersects vocab t rule = List.exists (fun g -> mem g t) (Rule.ground_rules vocab rule)

(* Stream the ground rules of [rules] through a scratch dedup table that is
   dropped on return, counting distinct ground rules and — when [within] is
   given — how many of them fall inside that range.  A single pass gives
   Algorithm 1's numerator and denominator without materialising Range(P_y)
   or the overlap. *)
let count_ground_rules ?within vocab rules : int * int =
  let seen = Rule_tbl.create 1024 in
  let overlap = ref 0 in
  List.iter
    (fun rule ->
      List.iter
        (fun g ->
          if not (Rule_tbl.mem seen g) then begin
            Rule_tbl.add seen g ();
            match within with
            | Some range when mem g range -> incr overlap
            | Some _ | None -> ()
          end)
        (Rule.ground_rules vocab rule))
    rules;
  (Rule_tbl.length seen, !overlap)

(* #Range of a rule list without retaining the range.  With [within], only
   ground rules already inside that range are counted. *)
let cardinality_of_rules ?within vocab rules =
  match within with
  | None -> fst (count_ground_rules vocab rules)
  | Some _ -> snd (count_ground_rules ?within vocab rules)

let pp ppf t =
  Fmt.pf ppf "range (%d ground rules):@." (cardinality t);
  List.iteri (fun i rule -> Fmt.pf ppf "  %d. %a@." (i + 1) Rule.pp rule) (elements t)
