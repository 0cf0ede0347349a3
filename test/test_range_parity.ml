(* Differential tests: the hash-backed Range and memoized coverage must
   agree *exactly* with the seed's set-based implementation
   (kept as Test_support.Range_reference) — on randomly generated
   vocabularies and policies (seeded via Workload.Prng, so failures are
   reproducible bit-for-bit), and on the paper's own Section 5 walkthrough
   (Table 1's 3/10) and Figure 3 (3/6). *)

module R = Prima_core.Rule
module P = Prima_core.Policy
module Range = Prima_core.Range
module Ref_range = Test_support.Range_reference
module C = Prima_core.Coverage
module Prng = Workload.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_rules label expected actual =
  Alcotest.(check (list string)) label
    (List.map R.to_string expected)
    (List.map R.to_string actual)

(* --- random vocabularies --- *)

(* A random taxonomy for [attr]: a tree of depth <= max_depth with 1-3
   children per interior node.  Values are globally unique within the
   taxonomy by construction ("<attr>0", "<attr>1", ...). *)
let random_taxonomy prng ~attr ~max_depth =
  let counter = ref 0 in
  let fresh () =
    let v = Printf.sprintf "%s%d" attr !counter in
    incr counter;
    v
  in
  let rec build depth =
    let value = fresh () in
    if depth >= max_depth || Prng.bool prng ~probability:0.3 then Vocabulary.Taxonomy.leaf value
    else begin
      let n = 1 + Prng.int prng 3 in
      Vocabulary.Taxonomy.node value (List.init n (fun _ -> build (depth + 1)))
    end
  in
  Vocabulary.Taxonomy.create ~attr (build 1)

let attrs = [ "data"; "purpose"; "authorized" ]

let random_vocab prng =
  Vocabulary.Vocab.of_taxonomies
    (List.map (fun attr -> random_taxonomy prng ~attr ~max_depth:(2 + Prng.int prng 3)) attrs)

(* --- random rules and policies --- *)

let random_rule prng vocab =
  let term attr =
    let values = Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy vocab attr) in
    (attr, Prng.pick prng values)
  in
  (* Keep at least one term; drop the others at random to vary cardinality
     (Definition 6 only intersects equal-cardinality rules). *)
  let kept =
    List.filter (fun _ -> Prng.bool prng ~probability:0.7) attrs
  in
  let kept = if kept = [] then [ List.nth attrs (Prng.int prng 3) ] else kept in
  R.of_assoc (List.map term kept)

let random_policy prng vocab ~max_size =
  P.make (List.init (Prng.int prng (max_size + 1)) (fun _ -> random_rule prng vocab))

(* --- the parity assertions for one (vocab, policies) draw --- *)

let ref_stats vocab ~p_x ~p_y : C.stats =
  (* Algorithm 1 recomputed on the reference representation. *)
  let range_x = Ref_range.of_policy vocab p_x in
  let range_y = Ref_range.of_policy vocab p_y in
  let overlap = Ref_range.cardinality (Ref_range.inter range_x range_y) in
  let denominator = Ref_range.cardinality range_y in
  { C.overlap;
    denominator;
    coverage =
      (if denominator = 0 then 1.0 else float_of_int overlap /. float_of_int denominator);
    uncovered = Ref_range.elements (Ref_range.diff range_y range_x);
  }

let ref_bag_stats vocab ~p_x ~p_y : C.stats =
  let range_x = Ref_range.of_policy vocab p_x in
  let rules = P.rules p_y in
  let covered, uncovered =
    List.partition (fun rule -> Ref_range.covers vocab range_x rule) rules
  in
  let overlap = List.length covered and denominator = List.length rules in
  { C.overlap;
    denominator;
    coverage =
      (if denominator = 0 then 1.0 else float_of_int overlap /. float_of_int denominator);
    uncovered;
  }

let assert_parity prng vocab =
  let p_a = random_policy prng vocab ~max_size:10 in
  let p_b = random_policy prng vocab ~max_size:10 in
  let hash_a = Range.of_policy vocab p_a and hash_b = Range.of_policy vocab p_b in
  let ref_a = Ref_range.of_policy vocab p_a and ref_b = Ref_range.of_policy vocab p_b in
  (* range construction *)
  check_rules "elements" (Ref_range.elements ref_a) (Range.elements hash_a);
  check_int "cardinality" (Ref_range.cardinality ref_a) (Range.cardinality hash_a);
  check_bool "is_empty" (Ref_range.is_empty ref_a) (Range.is_empty hash_a);
  (* algebra *)
  check_rules "inter"
    (Ref_range.elements (Ref_range.inter ref_a ref_b))
    (Range.elements (Range.inter hash_a hash_b));
  check_rules "diff"
    (Ref_range.elements (Ref_range.diff ref_a ref_b))
    (Range.elements (Range.diff hash_a hash_b));
  check_rules "union"
    (Ref_range.elements (Ref_range.union ref_a ref_b))
    (Range.elements (Range.union hash_a hash_b));
  check_bool "subset a b" (Ref_range.subset ref_a ref_b) (Range.subset hash_a hash_b);
  check_bool "subset inter"
    (Ref_range.subset (Ref_range.inter ref_a ref_b) ref_b)
    (Range.subset (Range.inter hash_a hash_b) hash_b);
  (* membership lifted to composite rules *)
  for _ = 1 to 10 do
    let probe = random_rule prng vocab in
    check_bool "covers" (Ref_range.covers vocab ref_a probe) (Range.covers vocab hash_a probe);
    check_bool "intersects" (Ref_range.intersects vocab ref_a probe)
      (Range.intersects vocab hash_a probe)
  done;
  (* coverage, both semantics *)
  let expected = ref_stats vocab ~p_x:p_a ~p_y:p_b in
  let got = C.compute vocab ~p_x:p_a ~p_y:p_b in
  check_int "coverage overlap" expected.C.overlap got.C.overlap;
  check_int "coverage denominator" expected.C.denominator got.C.denominator;
  Alcotest.(check (float 0.)) "coverage ratio" expected.C.coverage got.C.coverage;
  check_rules "coverage uncovered" expected.C.uncovered got.C.uncovered;
  let expected_bag = ref_bag_stats vocab ~p_x:p_a ~p_y:p_b in
  let got_bag = C.compute_bag vocab ~p_x:p_a ~p_y:p_b in
  check_int "bag overlap" expected_bag.C.overlap got_bag.C.overlap;
  check_int "bag denominator" expected_bag.C.denominator got_bag.C.denominator;
  check_rules "bag uncovered" expected_bag.C.uncovered got_bag.C.uncovered

let test_random_parity seed () =
  let prng = Prng.create ~seed in
  for _ = 1 to 25 do
    let vocab = random_vocab prng in
    assert_parity prng vocab
  done

(* --- the paper's Section 5 walkthrough on both implementations --- *)

let test_section5_walkthrough () =
  let vocab = Workload.Scenario.vocab () in
  let pattern_attrs = Vocabulary.Audit_attrs.pattern in
  let p_x = P.project (Workload.Scenario.policy_store ()) ~attrs:pattern_attrs in
  let p_y = P.project (Workload.Scenario.table1_audit_policy ()) ~attrs:pattern_attrs in
  let stats = C.compute_bag vocab ~p_x ~p_y in
  check_int "Table 1 overlap 3" 3 stats.C.overlap;
  check_int "Table 1 denominator 10" 10 stats.C.denominator;
  let expected = ref_bag_stats vocab ~p_x ~p_y in
  check_int "reference agrees (overlap)" expected.C.overlap stats.C.overlap;
  check_int "reference agrees (denominator)" expected.C.denominator stats.C.denominator;
  check_rules "reference agrees (uncovered)" expected.C.uncovered stats.C.uncovered

let test_figure3_walkthrough () =
  let vocab = Workload.Scenario.vocab () in
  let pattern_attrs = Vocabulary.Audit_attrs.pattern in
  let p_x = P.project (Workload.Scenario.policy_store ()) ~attrs:pattern_attrs in
  let p_y = P.project (Workload.Scenario.figure3_audit_policy ()) ~attrs:pattern_attrs in
  let stats = C.compute vocab ~p_x ~p_y in
  check_int "Figure 3 overlap 3" 3 stats.C.overlap;
  check_int "Figure 3 denominator 6" 6 stats.C.denominator;
  let expected = ref_stats vocab ~p_x ~p_y in
  check_rules "reference agrees (uncovered)" expected.C.uncovered stats.C.uncovered

(* Re-running coverage against the *same* vocabulary must keep hitting the
   memo without drifting: same numbers on every repetition. *)
let test_memo_stability () =
  let prng = Prng.create ~seed:7 in
  let vocab = random_vocab prng in
  let p_x = random_policy prng vocab ~max_size:8 in
  let p_y = random_policy prng vocab ~max_size:8 in
  let first = C.compute vocab ~p_x ~p_y in
  for _ = 1 to 5 do
    let again = C.compute vocab ~p_x ~p_y in
    check_int "stable overlap" first.C.overlap again.C.overlap;
    check_int "stable denominator" first.C.denominator again.C.denominator;
    check_rules "stable uncovered" first.C.uncovered again.C.uncovered
  done;
  (* A *fresh* vocabulary over different trees must not see stale entries:
     recompute against a structurally different draw and cross-check the
     reference on it. *)
  let vocab' = random_vocab prng in
  let p = random_policy prng vocab' ~max_size:8 in
  check_int "fresh vocab, fresh grounding"
    (Ref_range.cardinality (Ref_range.of_policy vocab' p))
    (Range.cardinality (Range.of_policy vocab' p))

let () =
  Alcotest.run "range-parity"
    [ ( "random",
        [ Alcotest.test_case "seed 1" `Quick (test_random_parity 1);
          Alcotest.test_case "seed 42" `Quick (test_random_parity 42);
          Alcotest.test_case "seed 20260806" `Quick (test_random_parity 20260806);
        ] );
      ( "paper",
        [ Alcotest.test_case "Section 5: 3/10" `Quick test_section5_walkthrough;
          Alcotest.test_case "Figure 3: 3/6" `Quick test_figure3_walkthrough;
        ] );
      ( "memoization",
        [ Alcotest.test_case "stable across repeats" `Quick test_memo_stability ] );
    ]
