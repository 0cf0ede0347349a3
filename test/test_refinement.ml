(* Tests for Algorithms 2-6: Filter, dataAnalysis, extractPatterns, Prune and
   the Refinement pipeline, pinned to the Section 5 use case. *)

module F = Prima_core.Filter
module DA = Prima_core.Data_analysis
module EP = Prima_core.Extract_patterns
module Pr = Prima_core.Prune
module Ref = Prima_core.Refinement
module P = Prima_core.Policy
module R = Prima_core.Rule
module S = Workload.Scenario
module C = Prima_core.Coverage
module T = Prima_core.Trail
module E = Hdb.Audit_schema
module To_policy = Audit_mgmt.To_policy

let vocab = S.vocab ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let compact = R.to_compact_string ~attrs:Vocabulary.Audit_attrs.pattern

(* --- Filter (Algorithm 3) --- *)

let test_filter_keeps_exceptions () =
  let practice = F.run (S.table1_audit_policy ()) in
  (* t3, t4, t6, t7, t8, t9, t10 *)
  check_int "seven practice entries" 7 (P.cardinality practice)

let test_filter_drops_regular () =
  let practice = F.run (S.figure3_audit_policy ()) in
  check_int "three exceptions" 3 (P.cardinality practice);
  check_bool "no regular left" true
    (List.for_all F.is_exception (P.rules practice))

let test_filter_drops_prohibitions () =
  let denied =
    R.of_assoc
      [ ("time", "99"); ("op", "0"); ("user", "eve"); ("data", "psychiatry");
        ("purpose", "research"); ("authorized", "clerk"); ("status", "0") ]
  in
  let p = P.add_rule (S.table1_audit_policy ()) denied in
  check_int "denied dropped" 7 (P.cardinality (F.run p));
  check_int "kept when asked" 8 (P.cardinality (F.run ~keep_prohibitions:true p))

let test_filter_empty () =
  check_int "empty in, empty out" 0 (P.cardinality (F.run (P.make [])))

(* --- dataAnalysis (Algorithm 5) --- *)

let test_data_analysis_statement_text () =
  let sql = DA.statement ~table_name:"practice" DA.default_config in
  check_string "paper's statement"
    "SELECT data, purpose, authorized FROM practice GROUP BY data, purpose, authorized HAVING COUNT(*) >= 5 AND COUNT(DISTINCT user) > 1"
    sql

let test_data_analysis_strict_comparator () =
  let config = { DA.default_config with DA.comparator = DA.More_than } in
  let sql = DA.statement ~table_name:"p" config in
  check_bool "uses >" true
    (String.length sql > 0
    &&
    let rec contains i =
      i + 12 <= String.length sql
      && (String.sub sql i 12 = "COUNT(*) > 5" || contains (i + 1))
    in
    contains 0)

let test_data_analysis_finds_pattern () =
  let practice = F.run (S.table1_audit_policy ()) in
  let patterns = DA.analyse practice in
  check_int "exactly one" 1 (List.length patterns);
  check_string "the pattern" "referral:registration:nurse" (compact (List.hd patterns))

let test_data_analysis_threshold_edge () =
  (* The pattern occurs exactly 5 times: f = 5 at-least finds it, more-than
     does not — the pseudocode/narrative discrepancy made executable. *)
  let practice = F.run (S.table1_audit_policy ()) in
  let strict = { DA.default_config with DA.comparator = DA.More_than } in
  check_int "strict misses it" 0 (List.length (DA.analyse ~config:strict practice));
  let lower = { DA.default_config with DA.min_frequency = 6 } in
  check_int "f=6 misses it" 0 (List.length (DA.analyse ~config:lower practice))

let test_data_analysis_distinct_user_condition () =
  (* With the distinct-user condition dropped, single-user repetition also
     surfaces; with it, the pattern needs >= 2 users (it has 3). *)
  let single_user_spam =
    List.init 5 (fun i ->
        R.of_assoc
          [ ("time", string_of_int (100 + i)); ("op", "1"); ("user", "solo");
            ("data", "genetic"); ("purpose", "research"); ("authorized", "clerk");
            ("status", "0") ])
  in
  let practice = P.add_rules (F.run (S.table1_audit_policy ())) single_user_spam in
  let with_condition = DA.analyse practice in
  check_int "condition filters solo runs" 1 (List.length with_condition);
  let no_condition = { DA.default_config with DA.condition = None } in
  check_int "without condition both" 2 (List.length (DA.analyse ~config:no_condition practice))

let test_data_analysis_custom_attributes () =
  let practice = F.run (S.table1_audit_policy ()) in
  let config =
    { DA.default_config with
      DA.attributes = [ "purpose"; "authorized" ];
      DA.condition = None;
    }
  in
  let patterns = DA.analyse ~config practice in
  check_bool "registration:nurse found" true
    (List.exists (fun r -> compact r = "registration:nurse") patterns)

(* --- extractPatterns (Algorithm 4) --- *)

let test_extract_sql_backend () =
  let practice = F.run (S.table1_audit_policy ()) in
  let patterns = EP.run practice in
  check_int "one pattern" 1 (List.length patterns);
  check_bool "it is the expected one" true
    (R.equal_syntactic (List.hd patterns) (S.expected_pattern ()))

let test_extract_mining_backend_agrees () =
  let practice = F.run (S.table1_audit_policy ()) in
  let sql_patterns = EP.run practice in
  let mine cfg = EP.run ~backend:(EP.Mining cfg) practice in
  let apriori = mine EP.default_mining in
  let fp = mine { EP.default_mining with EP.algorithm = `Fp_growth } in
  let sorted ps = List.sort String.compare (List.map compact ps) in
  Alcotest.(check (list string)) "apriori = sql" (sorted sql_patterns) (sorted apriori);
  Alcotest.(check (list string)) "fp = sql" (sorted sql_patterns) (sorted fp)

let test_extract_mining_distinct_users () =
  let single_user_spam =
    List.init 6 (fun i ->
        R.of_assoc
          [ ("time", string_of_int (200 + i)); ("op", "1"); ("user", "solo");
            ("data", "genetic"); ("purpose", "research"); ("authorized", "clerk");
            ("status", "0") ])
  in
  let practice = P.make single_user_spam in
  check_int "solo pattern suppressed" 0
    (List.length (EP.run ~backend:(EP.Mining EP.default_mining) practice));
  check_int "allowed when disabled" 1
    (List.length
       (EP.run
          ~backend:(EP.Mining { EP.default_mining with EP.distinct_users = false })
          practice))

let test_correlations () =
  let practice = F.run (S.table1_audit_policy ()) in
  let interner, rules = EP.correlations ~min_support:5 ~min_confidence:0.9 practice in
  ignore interner;
  (* (data=referral) -> (purpose=registration) holds with confidence 1 in
     the filtered practice set. *)
  check_bool "correlations found" true (List.length rules > 0)

(* --- Prune (Algorithm 6) --- *)

let test_prune_removes_covered () =
  let covered = R.of_assoc [ ("data", "referral"); ("purpose", "treatment"); ("authorized", "nurse") ] in
  let useful =
    Pr.run vocab
      ~patterns:[ covered; S.expected_pattern () ]
      ~p_ps:(S.policy_store ())
  in
  check_int "one survives" 1 (List.length useful);
  check_bool "the uncovered one" true (R.equal_syntactic (List.hd useful) (S.expected_pattern ()))

let test_prune_composite_store_rule_covers () =
  (* The store rule (routine, treatment, nurse) is composite: it must prune
     ground patterns under it. *)
  let pattern = R.of_assoc [ ("data", "prescription"); ("purpose", "treatment"); ("authorized", "nurse") ] in
  check_int "pruned by composite" 0
    (List.length (Pr.run vocab ~patterns:[ pattern ] ~p_ps:(S.policy_store ())))

let test_prune_empty_patterns () =
  check_int "empty in" 0 (List.length (Pr.run vocab ~patterns:[] ~p_ps:(S.policy_store ())))

let test_prune_ground_complement () =
  let pattern = R.of_assoc [ ("data", "routine"); ("purpose", "billing"); ("authorized", "nurse") ] in
  let ground = Pr.ground_complement vocab ~patterns:[ pattern ] ~p_ps:(S.policy_store ()) in
  (* none of routine's three leaves is covered for billing:nurse *)
  check_int "three uncovered ground rules" 3 (List.length ground)

(* --- Refinement (Algorithm 2) --- *)

let test_refinement_use_case () =
  let report =
    Ref.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "practice size" 7 report.Ref.practice_size;
  check_int "one pattern" 1 (List.length report.Ref.patterns);
  check_string "referral:registration:nurse" "referral:registration:nurse"
    (compact (List.hd report.Ref.useful));
  Alcotest.(check (float 1e-9)) "before 30%" 0.3 report.Ref.coverage_before.Prima_core.Coverage.coverage;
  Alcotest.(check (float 1e-9)) "after 80%" 0.8 report.Ref.coverage_after.Prima_core.Coverage.coverage

let test_refinement_reject_all () =
  let config = { Ref.default_config with Ref.acceptance = Ref.Reject_all } in
  let report =
    Ref.run_epoch ~config ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "nothing accepted" 0 (List.length report.Ref.accepted);
  Alcotest.(check (float 1e-9)) "coverage unchanged" 0.3
    report.Ref.coverage_after.Prima_core.Coverage.coverage

let test_refinement_oracle () =
  let only_billing rule = R.find_attr rule "purpose" = Some "billing" in
  let config = { Ref.default_config with Ref.acceptance = Ref.Oracle only_billing } in
  let report =
    Ref.run_epoch ~config ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "oracle rejected the pattern" 0 (List.length report.Ref.accepted)

let test_refinement_idempotent_after_adoption () =
  (* A second run over the same log finds nothing new: Prune removes the
     now-covered pattern. *)
  let p_al = S.table1_audit_policy () in
  let first = Ref.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al () in
  let second = Ref.run_epoch ~vocab ~p_ps:first.Ref.p_ps' ~p_al () in
  check_int "no new useful patterns" 0 (List.length second.Ref.useful)

let test_refinement_epochs_accumulate () =
  let batch = S.table1_audit_policy () in
  let reports, final =
    Ref.run_epochs ~vocab ~p_ps:(S.policy_store ()) ~batches:[ batch; batch ] ()
  in
  check_int "two epochs" 2 (List.length reports);
  check_int "store grew once" (P.cardinality (S.policy_store ()) + 1) (P.cardinality final)

(* --- Prima facade --- *)

let test_prima_training_period () =
  let prima =
    Prima_core.Prima.create ~training_minimum:20 ~vocab ~p_ps:(S.policy_store ()) ()
  in
  Prima_core.Prima.ingest_rules prima (P.rules (S.table1_audit_policy ()));
  check_bool "still training" true (Prima_core.Prima.in_training prima);
  (match Prima_core.Prima.refine prima with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "refined during training");
  Prima_core.Prima.set_training_minimum prima 5;
  match Prima_core.Prima.refine prima with
  | Ok report -> check_int "accepted" 1 (List.length report.Ref.accepted)
  | Error e -> Alcotest.fail e

let test_prima_history_and_store_growth () =
  let prima = Prima_core.Prima.create ~vocab ~p_ps:(S.policy_store ()) () in
  Prima_core.Prima.ingest_rules prima (P.rules (S.table1_audit_policy ()));
  (match Prima_core.Prima.refine prima with Ok _ -> () | Error e -> Alcotest.fail e);
  check_int "history" 1 (List.length (Prima_core.Prima.history prima));
  check_int "store has 4 rules" 4 (P.cardinality (Prima_core.Prima.policy_store prima));
  let cov = Prima_core.Prima.coverage prima in
  Alcotest.(check (float 1e-9)) "bag coverage now 80%" 0.8
    cov.Prima_core.Prima.bag_semantics.Prima_core.Coverage.coverage

(* --- rules without a user term (regression) --- *)

(* Six practice entries of one pattern, none with a user: the paper's
   statement names [user] in its condition, so the practice table must
   carry that column even though no rule does. *)
let userless_rules () =
  List.init 6 (fun i ->
      R.of_assoc
        [ ("time", string_of_int i); ("status", "0"); ("op", "1"); ("data", "referral");
          ("purpose", "registration"); ("authorized", "nurse") ])

let test_userless_rules_refine () =
  let refine config =
    let prima = Prima_core.Prima.create ~config ~vocab ~p_ps:(S.policy_store ()) () in
    Prima_core.Prima.ingest_rules prima (userless_rules ());
    match Prima_core.Prima.refine prima with
    | Ok report -> List.map compact report.Ref.patterns
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "no distinct users under the default condition" []
    (refine Ref.default_config);
  let no_condition =
    { Ref.default_config with
      Ref.backend = EP.Sql { DA.default_config with DA.condition = None }
    }
  in
  Alcotest.(check (list string)) "the pattern without the condition"
    [ "referral:registration:nurse" ] (refine no_condition);
  let p_al = P.make (userless_rules ()) in
  let report = Ref.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al () in
  check_int "run_epoch finds no pattern" 0 (List.length report.Ref.patterns);
  check_int "analyse finds no pattern" 0 (List.length (DA.analyse (F.run p_al)))

(* --- the coded epoch against its reference --- *)

(* [Ref.run_trail_epoch] over a coded trail must equal [Ref.run_epoch]
   over the same trail's rules, field by field, with patterns and
   uncovered listings compared as ordered lists.  Fused-path inputs are
   random audit trails under every Algorithm 5 setting the fused pass
   accepts; fallback inputs break exactly one of its conditions. *)

(* Small pools, one composite value among them, so groups repeat. *)
let datas = [ "referral"; "prescription"; "routine" ]
let purposes = [ "treatment"; "registration" ]
let roles = [ "nurse"; "clerk" ]

let gen_entry : (int -> E.entry) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* op = frequencyl [ (4, E.Allow); (1, E.Disallow) ]
  and* status = frequencyl [ (3, E.Exception_based); (1, E.Regular) ]
  and* user =
    frequency
      [ (3, oneofl [ "mark"; "tim"; "bob" ]);
        (1, map (fun i -> "solo-" ^ string_of_int i) (int_bound 10_000));
      ]
  and* data = oneofl datas
  and* purpose = oneofl purposes
  and* authorized = oneofl roles in
  return (fun time -> E.entry ~time ~op ~user ~data ~purpose ~authorized ~status)

let gen_entries_sized size : E.entry list QCheck2.Gen.t =
  QCheck2.Gen.(map (List.mapi (fun time make -> make time)) (list_size size gen_entry))

let gen_entries ~min = gen_entries_sized (QCheck2.Gen.int_range min 100)

(* How the trail is coded: from entries as System codes them, or from
   rules as [Prima.ingest_rules] does, in chunks of [chunk], reading
   [Trail.policy] after every chunk when [peek]. *)
type coding = {
  from_entries : bool;
  chunk : int;
  peek : bool;
}

let gen_coding =
  let open QCheck2.Gen in
  let* from_entries = bool and* chunk = int_range 1 40 and* peek = bool in
  return { from_entries; chunk; peek }

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

let code_rules coding rules =
  let trail = T.create () in
  List.iter
    (fun chunk ->
      T.append_rules trail chunk;
      if coding.peek then ignore (T.policy trail))
    (chunks coding.chunk rules);
  trail

let code_entries coding entries =
  let trail = T.create () and memo = To_policy.patterns () in
  List.iter
    (fun chunk ->
      T.append trail
        ~rules:(lazy (List.map To_policy.rule_of_entry chunk))
        (To_policy.trail_entry memo) chunk;
      if coding.peek then ignore (T.policy trail))
    (chunks coding.chunk entries);
  trail

let rules_equal = List.equal R.equal

let stats_equal (a : C.stats) (b : C.stats) =
  a.C.overlap = b.C.overlap
  && a.C.denominator = b.C.denominator
  && Float.equal a.C.coverage b.C.coverage
  && rules_equal a.C.uncovered b.C.uncovered

let epoch_equal (a : Ref.epoch_report) (b : Ref.epoch_report) =
  a.Ref.practice_size = b.Ref.practice_size
  && rules_equal a.Ref.patterns b.Ref.patterns
  && rules_equal a.Ref.useful b.Ref.useful
  && rules_equal a.Ref.accepted b.Ref.accepted
  && rules_equal (P.rules a.Ref.p_ps') (P.rules b.Ref.p_ps')
  && stats_equal a.Ref.coverage_before b.Ref.coverage_before
  && stats_equal a.Ref.coverage_after b.Ref.coverage_after
  && a.Ref.qualifier = b.Ref.qualifier
  && a.Ref.budget_stats = b.Ref.budget_stats

(* cases run on each path, and governed ones that degraded to partial *)
let fused_cases = ref 0
let reference_cases = ref 0
let degraded_cases = ref 0

(* The coded epoch and coverage readings against the references over the
   trail's rules, which must be [rules] in order. *)
let agrees ~fused ?limits config trail rules =
  let p_ps = S.policy_store () in
  let p_al = T.policy trail in
  let coded = Ref.run_trail_epoch ~config ?limits ~vocab ~p_ps trail in
  let reference = Ref.run_epoch ~config ?limits ~vocab ~p_ps ~p_al () in
  let aligned bag =
    C.aligned ~bag vocab ~attrs:Vocabulary.Audit_attrs.pattern ~p_x:p_ps ~p_y:p_al
  in
  let p_x = P.project p_ps ~attrs:Vocabulary.Audit_attrs.pattern in
  incr (if fused then fused_cases else reference_cases);
  if coded.Ref.qualifier <> C.Exact then incr degraded_cases;
  if (limits = None && Ref.fuses config trail) <> fused then
    QCheck2.Test.fail_reportf "expected the %s path" (if fused then "fused" else "reference");
  rules_equal (P.rules p_al) rules
  && epoch_equal coded reference
  && stats_equal (T.coverage vocab trail ~p_x) (aligned false)
  && stats_equal (T.coverage_bag vocab trail ~p_x) (aligned true)

let gen_fused_config =
  let open QCheck2.Gen in
  let* min_frequency = int_range 1 8
  and* strict = bool
  and* with_condition = bool
  and* reversed = bool
  and* keep_prohibitions = bool
  and* reject = bool in
  let pattern = Vocabulary.Audit_attrs.pattern in
  let attributes = if reversed then List.rev pattern else pattern in
  let condition = if with_condition then DA.default_config.DA.condition else None in
  let comparator = if strict then DA.More_than else DA.At_least in
  return
    { Ref.backend = EP.Sql { DA.attributes; min_frequency; comparator; condition };
      keep_prohibitions;
      acceptance = (if reject then Ref.Reject_all else Ref.Accept_all);
    }

let describe_config (config : Ref.config) =
  let backend =
    match config.Ref.backend with
    | EP.Sql c ->
      Printf.sprintf "sql [%s] f=%d %s %s" (String.concat "," c.DA.attributes)
        c.DA.min_frequency
        (match c.DA.comparator with DA.At_least -> ">=" | DA.More_than -> ">")
        (Option.value c.DA.condition ~default:"-")
    | EP.Mining m -> Printf.sprintf "mining support=%d" m.EP.min_support
  in
  Printf.sprintf "%s keep_prohibitions=%b" backend config.Ref.keep_prohibitions

let print_entries entries = String.concat "; " (List.map (Fmt.str "%a" E.pp) entries)

let prop_fused_epoch_matches_reference =
  QCheck2.Test.make ~name:"fused coded epoch = run_epoch over audit_policy" ~count:400
    ~print:(fun (entries, config, coding) ->
      Printf.sprintf "%s | entries=%b chunk=%d peek=%b | %s" (describe_config config)
        coding.from_entries coding.chunk coding.peek (print_entries entries))
    QCheck2.Gen.(triple (gen_entries ~min:0) gen_fused_config gen_coding)
    (fun (entries, config, coding) ->
      let rules = List.map To_policy.rule_of_entry entries in
      let trail =
        if coding.from_entries then code_entries coding entries else code_rules coding rules
      in
      agrees ~fused:true config trail rules)

(* One way out of the fused pass each. *)
type twist =
  | No_user
  | No_pattern_attr of string
  | Duplicate_term
  | Condition of string
  | Governed of int  (** a tuple budget: small ones degrade to partial *)
  | Mining of bool * [ `Apriori | `Fp_growth ]

let twist_to_string = function
  | No_user -> "no user"
  | No_pattern_attr a -> "no " ^ a
  | Duplicate_term -> "duplicated data term"
  | Condition c -> c
  | Governed tuples -> Printf.sprintf "governed, %d tuples" tuples
  | Mining (users, _) -> Printf.sprintf "mining, distinct users %b" users

let gen_twist =
  let open QCheck2.Gen in
  oneof
    [ return No_user;
      map (fun a -> No_pattern_attr a) (oneofl Vocabulary.Audit_attrs.pattern);
      return Duplicate_term;
      return (Condition "COUNT(DISTINCT user) > 2");
      map (fun n -> Governed n) (int_range 1 60);
      map2 (fun u a -> Mining (u, a)) bool (oneofl [ `Apriori; `Fp_growth ]);
    ]

(* Rules [i] with [i mod every = 0] lose a term or gain a second data term. *)
let twist_rules twist ~every rules =
  let edit rule =
    let terms = R.terms rule in
    let without attr =
      R.make (List.filter (fun t -> Prima_core.Rule_term.attr t <> attr) terms)
    in
    match twist with
    | No_user -> without "user"
    | No_pattern_attr a -> without a
    | Duplicate_term ->
      let other = List.find (fun d -> Some d <> R.find_attr rule "data") datas in
      R.make (Prima_core.Rule_term.make ~attr:"data" ~value:other :: terms)
    | Condition _ | Governed _ | Mining _ -> rule
  in
  List.mapi (fun i rule -> if i mod every = 0 then edit rule else rule) rules

let twist_config twist (config : Ref.config) =
  let sql_config =
    match config.Ref.backend with EP.Sql c -> c | EP.Mining _ -> DA.default_config
  in
  match twist with
  | No_user | No_pattern_attr _ | Duplicate_term | Governed _ -> config
  | Condition c -> { config with Ref.backend = EP.Sql { sql_config with DA.condition = Some c } }
  | Mining (distinct_users, algorithm) ->
    { config with
      Ref.backend =
        EP.Mining
          { EP.default_mining with
            EP.min_support = sql_config.DA.min_frequency;
            distinct_users;
            algorithm;
          }
    }

let prop_fallback_epoch_matches_reference =
  QCheck2.Test.make ~name:"fallback coded epoch = run_epoch over audit_policy" ~count:300
    ~print:(fun (((entries, config), coding), (twist, every)) ->
      Printf.sprintf "%s every %d | %s | entries=%b chunk=%d peek=%b | %s"
        (twist_to_string twist) every (describe_config config) coding.from_entries
        coding.chunk coding.peek (print_entries entries))
    QCheck2.Gen.(
      pair
        (pair (pair (gen_entries ~min:1) gen_fused_config) gen_coding)
        (pair gen_twist (int_range 1 5)))
    (fun (((entries, config), coding), (twist, every)) ->
      let config = twist_config twist config in
      let rules = twist_rules twist ~every (List.map To_policy.rule_of_entry entries) in
      let trail =
        match twist with
        | (Condition _ | Governed _ | Mining _) when coding.from_entries ->
          code_entries coding entries
        | _ -> code_rules coding rules
      in
      let limits =
        match twist with
        | Governed tuples -> Some (Relational.Budget.limits ~tuples ())
        | _ -> None
      in
      agrees ~fused:false ?limits config trail rules)

let test_both_paths_exercised () =
  check_int "cases on the fused pass" 400 !fused_cases;
  check_int "cases on the reference path" 300 !reference_cases;
  check_bool "some governed cases degraded to partial" true (!degraded_cases > 0)

(* --- running counters and cached verdicts against the walks --- *)

(* [Trail] keeps per-group counters as entries arrive and caches coverage
   verdicts per (vocabulary stamp, store); [Test_support.Trail_reference]
   is the trail before that, which walks every entry on every reading.
   Random programs interleave chunked appends — coded from entries as
   System codes them, or from rules, some of them irregular — with store
   changes, vocabulary edits and readings; every reading must equal the
   reference's, with patterns and uncovered listings compared as ordered
   lists.  Leaves added under a composite value, stores of leaves and
   composites, and partial store rules make verdicts change both ways. *)

module TR = Test_support.Trail_reference

(* How an irregular chunk breaks rules [i] with [i mod every = 0]. *)
type break =
  | Drop of string list  (** those terms, possibly every pattern term *)
  | Duplicate  (** a second data term *)

type read = {
  keep_prohibitions : bool;
  strict : bool;
  f : int;
  distinct_users : bool;
  bag_first : bool;
}

type trail_op =
  | Entries of E.entry list
  | Rules of E.entry list * (break * int) option
  | Read of read
  | Store of R.t list
  | Grow of R.t
  | Edit of string  (** a new data leaf under that value *)

let break_rules (break, every) rules =
  let edit rule =
    match break with
    | Drop attrs -> (
      let kept t = not (List.mem (Prima_core.Rule_term.attr t) attrs) in
      match List.filter kept (R.terms rule) with
      | [] -> rule
      | terms -> R.make terms)
    | Duplicate -> List.hd (twist_rules Duplicate_term ~every:1 [ rule ])
  in
  List.mapi (fun i rule -> if i mod every = 0 then edit rule else rule) rules

let gen_store_rule =
  let open QCheck2.Gen in
  let* d = oneofl [ "routine"; "referral"; "prescription"; "lab-results"; "clinical" ]
  and* p = oneofl [ "treatment"; "registration"; "administering-healthcare" ]
  and* a = oneofl [ "nurse"; "clerk"; "clinical-staff" ]
  and* partial = frequencyl [ (6, false); (1, true) ] in
  let open Vocabulary.Audit_attrs in
  return (R.of_assoc ([ (data, d); (purpose, p) ] @ if partial then [] else [ (authorized, a) ]))

let gen_trail_op =
  let open QCheck2.Gen in
  let chunk = gen_entries_sized (int_range 0 15) in
  frequency
    [ (4, map (fun es -> Entries es) chunk);
      (2, map (fun es -> Rules (es, None)) chunk);
      ( 1,
        let* es = chunk
        and* break =
          oneofl
            [ Drop [ "user" ]; Drop [ "data" ]; Drop [ "authorized" ];
              Drop Vocabulary.Audit_attrs.pattern; Duplicate;
            ]
        and* every = int_range 1 5 in
        return (Rules (es, Some (break, every))) );
      ( 6,
        let* keep_prohibitions = bool and* strict = bool and* f = int_range 1 4
        and* distinct_users = bool and* bag_first = bool in
        return (Read { keep_prohibitions; strict; f; distinct_users; bag_first }) );
      (1, map (fun rules -> Store rules) (list_size (int_range 0 6) gen_store_rule));
      (1, map (fun rule -> Grow rule) gen_store_rule);
      (1, map (fun parent -> Edit parent) (oneofl [ "routine"; "referral"; "clinical" ]));
    ]

let trail_op_to_string = function
  | Entries es -> Printf.sprintf "entries [%s]" (print_entries es)
  | Rules (es, None) -> Printf.sprintf "rules [%s]" (print_entries es)
  | Rules (es, Some (break, every)) ->
    Printf.sprintf "rules %s every %d [%s]"
      (match break with
      | Drop attrs -> "without " ^ String.concat "," attrs
      | Duplicate -> "doubled data")
      every (print_entries es)
  | Read r ->
    Printf.sprintf "read(keep=%b %s %d users=%b %s first)" r.keep_prohibitions
      (if r.strict then ">" else ">=")
      r.f r.distinct_users
      (if r.bag_first then "bag" else "set")
  | Store rules -> Printf.sprintf "store [%s]" (String.concat "; " (List.map compact rules))
  | Grow rule -> "grow " ^ R.to_string rule
  | Edit parent -> "leaf under " ^ parent

(* One reading of both trails.  The store is rebuilt rule by rule for each
   call, as [Prima] projects it anew, so the cache must match it by value. *)
let readings_agree vocab store trail reference r =
  let p_x () = P.make (List.map (fun rule -> R.of_assoc (R.to_assoc rule)) store) in
  let frequent = if r.strict then fun n -> n > r.f else fun n -> n >= r.f in
  let groups run =
    match run ~keep_prohibitions:r.keep_prohibitions ~frequent ~distinct_users:r.distinct_users with
    | result -> Some result
    | exception Invalid_argument _ -> None
  in
  let bag () =
    stats_equal
      (T.coverage_bag vocab trail ~p_x:(p_x ()))
      (TR.coverage_bag vocab reference ~p_x:(p_x ()))
  in
  let set () =
    stats_equal (T.coverage vocab trail ~p_x:(p_x ())) (TR.coverage vocab reference ~p_x:(p_x ()))
  in
  (match (groups (T.frequent_groups trail), groups (TR.frequent_groups reference)) with
  | Some (n, ps), Some (m, qs) -> n = m && rules_equal ps qs
  | None, None -> true
  | _ -> false)
  && T.length trail = TR.length reference
  && T.regular trail = TR.regular reference
  && if r.bag_first then bag () && set () else set () && bag ()

let run_trail_program ops =
  let trail = T.create () and reference = TR.create () and memo = To_policy.patterns () in
  let vocab = ref vocab and edits = ref 0 in
  let store = ref (P.rules (P.project (S.policy_store ()) ~attrs:Vocabulary.Audit_attrs.pattern)) in
  let append_rules rules =
    T.append_rules trail rules;
    TR.append_rules reference rules
  in
  let rec go step = function
    | [] -> Ok ()
    | op :: rest ->
      let agreed =
        match op with
        | Entries es ->
          T.append trail
            ~rules:(lazy (List.map To_policy.rule_of_entry es))
            (To_policy.trail_entry memo) es;
          TR.append_rules reference (List.map To_policy.rule_of_entry es);
          true
        | Rules (es, break) ->
          let rules = List.map To_policy.rule_of_entry es in
          append_rules (match break with Some b -> break_rules b rules | None -> rules);
          true
        | Read r -> readings_agree !vocab !store trail reference r
        | Store rules ->
          store := rules;
          true
        | Grow rule ->
          store := !store @ [ rule ];
          true
        | Edit parent ->
          incr edits;
          vocab :=
            Vocabulary.Vocab.with_leaf !vocab ~attr:Vocabulary.Audit_attrs.data ~parent
              ~value:(Printf.sprintf "edit-%d" !edits);
          true
      in
      if agreed then go (step + 1) rest
      else
        Error
          (Printf.sprintf "step %d (%s) differs from the reference" step (trail_op_to_string op))
  in
  go 1 ops

let prop_trail_matches_reference =
  QCheck2.Test.make ~name:"running counters and cached verdicts = Trail_reference's walks"
    ~count:300
    ~print:(fun ops -> String.concat "; " (List.map trail_op_to_string ops))
    QCheck2.Gen.(list_size (int_range 5 40) gen_trail_op)
    (fun ops ->
      match run_trail_program ops with
      | Ok () -> true
      | Error why -> QCheck2.Test.fail_report why)

let () =
  Alcotest.run "refinement"
    [ ( "filter",
        [ Alcotest.test_case "keeps exceptions" `Quick test_filter_keeps_exceptions;
          Alcotest.test_case "drops regular" `Quick test_filter_drops_regular;
          Alcotest.test_case "drops prohibitions" `Quick test_filter_drops_prohibitions;
          Alcotest.test_case "empty" `Quick test_filter_empty;
        ] );
      ( "data-analysis",
        [ Alcotest.test_case "statement text" `Quick test_data_analysis_statement_text;
          Alcotest.test_case "strict comparator" `Quick test_data_analysis_strict_comparator;
          Alcotest.test_case "finds the pattern" `Quick test_data_analysis_finds_pattern;
          Alcotest.test_case "threshold edge" `Quick test_data_analysis_threshold_edge;
          Alcotest.test_case "distinct-user condition" `Quick
            test_data_analysis_distinct_user_condition;
          Alcotest.test_case "custom attributes" `Quick test_data_analysis_custom_attributes;
        ] );
      ( "extract-patterns",
        [ Alcotest.test_case "sql backend" `Quick test_extract_sql_backend;
          Alcotest.test_case "mining backends agree" `Quick test_extract_mining_backend_agrees;
          Alcotest.test_case "mining distinct users" `Quick test_extract_mining_distinct_users;
          Alcotest.test_case "correlations" `Quick test_correlations;
        ] );
      ( "prune",
        [ Alcotest.test_case "removes covered" `Quick test_prune_removes_covered;
          Alcotest.test_case "composite store rules" `Quick test_prune_composite_store_rule_covers;
          Alcotest.test_case "empty" `Quick test_prune_empty_patterns;
          Alcotest.test_case "ground complement" `Quick test_prune_ground_complement;
        ] );
      ( "refinement",
        [ Alcotest.test_case "Section 5 use case" `Quick test_refinement_use_case;
          Alcotest.test_case "reject all" `Quick test_refinement_reject_all;
          Alcotest.test_case "oracle" `Quick test_refinement_oracle;
          Alcotest.test_case "idempotent after adoption" `Quick
            test_refinement_idempotent_after_adoption;
          Alcotest.test_case "epochs accumulate" `Quick test_refinement_epochs_accumulate;
        ] );
      ( "prima",
        [ Alcotest.test_case "training period" `Quick test_prima_training_period;
          Alcotest.test_case "history & growth" `Quick test_prima_history_and_store_growth;
          Alcotest.test_case "rules without a user term" `Quick test_userless_rules_refine;
        ] );
      ( "coded-epoch",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_fused_epoch_matches_reference; prop_fallback_epoch_matches_reference ]
        @ [ Alcotest.test_case "both paths exercised" `Quick test_both_paths_exercised ] );
      ( "trail",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_trail_matches_reference ] );
    ]
