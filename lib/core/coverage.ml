(* Definition 9 / Algorithm 1: ComputeCoverage.

   Coverage of P_x in relation to P_y is
     #(Range(P_x) ∩ Range(P_y)) / #Range(P_y).

   Two denominators coexist in the paper and both are provided:

   - [compute] is Definition 9 verbatim — ranges are *sets*, so repeated
     audit entries collapse (Figure 3's 3/6 = 50 %);
   - [compute_bag] counts each rule occurrence of P_y separately, which is
     how Section 5 arrives at 3/10 = 30 % for Table 1 (the pattern entry
     repeats five times).

   Policies over different attribute sets (seven-term audit rules vs
   three-term store rules) never intersect under Definition 6; callers
   align them first with [Policy.project] — [aligned] does this for you. *)

type stats = {
  overlap : int;
  denominator : int;
  coverage : float;
  uncovered : Rule.t list; (* the rules of P_y driving the gap *)
}

let ratio overlap denominator =
  if denominator = 0 then 1.0 else float_of_int overlap /. float_of_int denominator

(* Algorithm 1, set semantics.  When the caller does not need the
   uncovered listing ([~uncovered:false]), Range(P_y) and the overlap are
   only *counted* — streamed in one pass through Range.count_ground_rules —
   never materialised, which is what lets coverage run in the refinement
   inner loop. *)
let compute ?(uncovered = true) vocab ~p_x ~p_y : stats =
  let range_x = Range.of_policy vocab p_x in
  if uncovered then begin
    let range_y = Range.of_policy vocab p_y in
    (* One partitioning sweep over Range(P_y) yields both the overlap count
       and the uncovered listing — no intersection or difference tables. *)
    let overlap, uncov =
      Range.fold
        (fun g (n, uncov) ->
          if Range.mem g range_x then (n + 1, uncov) else (n, g :: uncov))
        range_y (0, [])
    in
    { overlap;
      denominator = Range.cardinality range_y;
      coverage = ratio overlap (Range.cardinality range_y);
      uncovered = List.sort Rule.compare uncov;
    }
  end
  else begin
    let denominator, overlap =
      Range.count_ground_rules ~within:range_x vocab (Policy.rules p_y)
    in
    { overlap; denominator; coverage = ratio overlap denominator; uncovered = [] }
  end

(* Bag semantics over P_y's rule sequence: each occurrence counts, as in the
   Section 5 walkthrough.  A rule is covered when its whole ground set lies
   in Range(P_x). *)
let compute_bag vocab ~p_x ~p_y : stats =
  let range_x = Range.of_policy vocab p_x in
  let rules = Policy.rules p_y in
  let covered, uncovered =
    List.partition (fun rule -> Range.covers vocab range_x rule) rules
  in
  { overlap = List.length covered;
    denominator = List.length rules;
    coverage = ratio (List.length covered) (List.length rules);
    uncovered;
  }

(* Project both policies onto the attributes they share with the
   vocabulary's pattern dimensions before comparing. *)
let aligned ?(bag = false) ?(uncovered = true) vocab ~attrs ~p_x ~p_y : stats =
  let p_x = Policy.project p_x ~attrs in
  let p_y = Policy.project p_y ~attrs in
  if bag then compute_bag vocab ~p_x ~p_y else compute ~uncovered vocab ~p_x ~p_y

(* Definition 10. *)
let complete vocab ~p_x ~p_y =
  let range_x = Range.of_policy vocab p_x in
  let range_y = Range.of_policy vocab p_y in
  Range.subset range_y range_x

let pp_stats ppf s =
  Fmt.pf ppf "coverage = %d/%d = %.0f%%" s.overlap s.denominator (100. *. s.coverage)

(* Degraded-mode qualifier.  A reading over a complete, verified P_AL is
   [Exact]; anything else only bounds coverage from below, and its
   evidence names the reasons, each emitted by the layer that lost or
   truncated part of the trail.  A lower bound must never drive pruning
   decisions: a pattern can look "already covered" only because its
   counter-evidence is missing. *)
type reason =
  | Site_dark of { site : string; lag : int }
  | Quarantined of int
  | Wal_tail_lost of string
  | Tampered of { log : string; offset : int }
  | Shard_degraded of { site : string; shards : int }
  | Budget_truncated of Relational.Errors.budget_stats
  | Brownout

type evidence = {
  completeness : float;
  reasons : reason list;
}

let exact = { completeness = 1.0; reasons = [] }

let join a b =
  { completeness = Float.min a.completeness b.completeness; reasons = a.reasons @ b.reasons }

type qualifier =
  | Exact
  | Lower_bound of evidence

type qualified = {
  stats : stats;
  qualifier : qualifier;
}

(* [Exact] means exactly "no reason". *)
let qualify evidence stats =
  { stats; qualifier = (if evidence.reasons = [] then Exact else Lower_bound evidence) }

let is_exact = function { qualifier = Exact; _ } -> true | _ -> false

let reasons = function Exact -> [] | Lower_bound e -> e.reasons

let pp_reason ppf = function
  | Site_dark { site; lag } -> Fmt.pf ppf "%s dark, %d entries missing" site lag
  | Quarantined n -> Fmt.pf ppf "%d entries quarantined" n
  | Wal_tail_lost log -> Fmt.pf ppf "%s WAL recovered a verified prefix only" log
  | Tampered { log; offset } -> Fmt.pf ppf "%s WAL tampered at offset %d" log offset
  | Shard_degraded { site; shards } -> Fmt.pf ppf "%s has %d degraded archive shard(s)" site shards
  | Budget_truncated stats ->
    Fmt.pf ppf "extraction hit its resource budget (%s)" (Relational.Errors.stats_to_string stats)
  | Brownout -> Fmt.string ppf "brownout grant"

let pp_qualifier ppf = function
  | Exact -> Fmt.string ppf "exact"
  | Lower_bound { completeness; reasons } ->
    Fmt.pf ppf "lower bound (completeness %.1f%%): %a" (100. *. completeness)
      Fmt.(list ~sep:(any "; ") pp_reason)
      reasons
