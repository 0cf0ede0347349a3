(* Tests for the synthetic workload: the deterministic PRNG, the hospital
   model, the generator's statistical shape and its ground-truth labels. *)

open Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  let xs = List.init 50 (fun _ -> Prng.int a 1000) in
  let ys = List.init 50 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:8 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000000) in
  check_bool "different streams" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let f = Prng.float rng in
    check_bool "unit interval" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_uniformity_rough () =
  let rng = Prng.create ~seed:3 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10000 do
    let i = Prng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter (fun n -> check_bool "within 30% of fair" true (n > 700 && n < 1300)) buckets

let test_prng_pick_weighted () =
  let rng = Prng.create ~seed:5 in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if Prng.pick_weighted rng [ ("heavy", 9); ("light", 1) ] = "heavy" then incr heavy
  done;
  check_bool "ratio respected" true (!heavy > 800)

(* --- hospital model --- *)

let test_staff_roster () =
  let config = Hospital.default_config () in
  let staff = Hospital.staff config in
  let expected = List.fold_left (fun acc (_, n) -> acc + n) 0 config.Hospital.staff_per_role in
  check_int "head count" expected (List.length staff);
  check_int "nurses" 14 (List.length (Hospital.users_of_role config "nurse"))

let test_policy_store_from_documented () =
  let config = Hospital.default_config () in
  let p_ps = Hospital.policy_store config in
  check_int "one rule per documented triple"
    (List.length config.Hospital.documented)
    (Prima_core.Policy.cardinality p_ps)

let test_is_informal_pattern () =
  let config = Hospital.default_config () in
  let informal =
    Prima_core.Rule.of_assoc
      [ ("data", "referral"); ("purpose", "registration"); ("authorized", "nurse") ]
  in
  let covered =
    Prima_core.Rule.of_assoc
      [ ("data", "vitals"); ("purpose", "treatment"); ("authorized", "nurse") ]
  in
  check_bool "informal recognised" true (Hospital.is_informal_pattern config informal);
  check_bool "covered not informal" false (Hospital.is_informal_pattern config covered)

(* --- generator --- *)

let test_generator_deterministic () =
  let config = { (Hospital.default_config ()) with Hospital.total_accesses = 200 } in
  let a = Generator.generate config and b = Generator.generate config in
  check_bool "same trail" true (a = b)

let test_generator_count_and_times () =
  let config = { (Hospital.default_config ()) with Hospital.total_accesses = 300 } in
  let trail = Generator.generate config in
  check_int "entry count" 300 (List.length trail);
  List.iteri
    (fun i l -> check_int "monotone time" (i + 1) l.Generator.entry.Hdb.Audit_schema.time)
    trail

let test_generator_label_mix () =
  let config = Hospital.default_config () in
  let trail = Generator.generate config in
  let count p = List.length (List.filter p trail) in
  let informal = count (fun l -> match l.Generator.label with Generator.Informal _ -> true | _ -> false) in
  let violations = count (fun l -> l.Generator.label = Generator.Violation) in
  let covered = count (fun l -> l.Generator.label = Generator.Covered) in
  let total = float_of_int config.Hospital.total_accesses in
  check_bool "informal near rate" true
    (Float.abs ((float_of_int informal /. total) -. config.Hospital.informal_rate) < 0.05);
  check_bool "violations near rate" true
    (Float.abs ((float_of_int violations /. total) -. config.Hospital.violation_rate) < 0.02);
  check_bool "covered majority" true (covered > informal + violations)

let test_generator_labels_consistent_with_status () =
  let config = Hospital.default_config () in
  List.iter
    (fun l ->
      match l.Generator.label with
      | Generator.Informal _ | Generator.Violation ->
        check_bool "non-covered is BTG" true
          (l.Generator.entry.Hdb.Audit_schema.status = Hdb.Audit_schema.Exception_based)
      | Generator.Covered -> ())
    (Generator.generate config)

let test_generator_violations_by_rogues () =
  let config = Hospital.default_config () in
  List.iter
    (fun l ->
      if l.Generator.label = Generator.Violation then
        check_bool "rogue user" true
          (String.length l.Generator.entry.Hdb.Audit_schema.user >= 5
          && String.sub l.Generator.entry.Hdb.Audit_schema.user 0 5 = "rogue"))
    (Generator.generate config)

let test_generator_epochs_partition () =
  let config =
    { (Hospital.default_config ()) with Hospital.total_accesses = 1050; epoch_size = 200 }
  in
  let trail = Generator.generate config in
  let batches = Generator.epochs config trail in
  check_int "six batches" 6 (List.length batches);
  check_int "flattening preserves" 1050 (List.length (List.concat batches));
  check_int "last partial" 50 (List.length (List.nth batches 5))

let test_generator_oracle () =
  let config = Hospital.default_config () in
  let oracle = Generator.oracle config in
  check_bool "accepts informal" true
    (oracle
       (Prima_core.Rule.of_assoc
          [ ("data", "referral"); ("purpose", "registration"); ("authorized", "nurse") ]));
  check_bool "rejects rogue pattern" false
    (oracle
       (Prima_core.Rule.of_assoc
          [ ("data", "genetic"); ("purpose", "telemarketing"); ("authorized", "clerk") ]))

let test_practices_covered_metric () =
  let config = Hospital.default_config () in
  let p_ps = Hospital.policy_store config in
  check_int "none covered initially" 0
    (List.length (Generator.practices_covered config p_ps));
  let richer =
    Prima_core.Policy.add_rule p_ps
      (Prima_core.Rule.of_assoc
         [ ("data", "referral"); ("purpose", "registration"); ("authorized", "nurse") ])
  in
  check_int "one covered" 1 (List.length (Generator.practices_covered config richer))

(* --- scenario fixtures --- *)

let test_scenario_shapes () =
  check_int "figure3 entries" 6 (List.length (Workload.Scenario.figure3_entries ()));
  check_int "table1 entries" 10 (List.length (Workload.Scenario.table1_entries ()));
  check_int "policy store rules" 3
    (Prima_core.Policy.cardinality (Workload.Scenario.policy_store ()))

let test_scenario_vocabulary_closed () =
  (* Every data/purpose/role value in the fixtures is in the vocabulary. *)
  let vocab = Workload.Scenario.vocab () in
  List.iter
    (fun e ->
      check_bool "data known" true
        (Vocabulary.Vocab.mem_value vocab ~attr:"data" ~value:e.Hdb.Audit_schema.data);
      check_bool "purpose known" true
        (Vocabulary.Vocab.mem_value vocab ~attr:"purpose" ~value:e.Hdb.Audit_schema.purpose);
      check_bool "role known" true
        (Vocabulary.Vocab.mem_value vocab ~attr:"authorized"
           ~value:e.Hdb.Audit_schema.authorized))
    (Workload.Scenario.table1_entries () @ Workload.Scenario.figure3_entries ())

let test_generator_vocabulary_closed () =
  let config = { (Hospital.default_config ()) with Hospital.total_accesses = 500 } in
  let vocab = config.Hospital.vocab in
  List.iter
    (fun l ->
      let e = l.Generator.entry in
      check_bool "data leaf" true
        (Vocabulary.Vocab.is_ground vocab ~attr:"data" ~value:e.Hdb.Audit_schema.data
        && Vocabulary.Vocab.mem_value vocab ~attr:"data" ~value:e.Hdb.Audit_schema.data);
      check_bool "purpose leaf" true
        (Vocabulary.Vocab.mem_value vocab ~attr:"purpose" ~value:e.Hdb.Audit_schema.purpose))
    (Generator.generate config)

(* ---- purpose workflows: plans, twists, and prefix conformance ---- *)

(* Untwisted instances conform to their template; every twist of every
   template, across seeds (which randomise the twist's position draw and
   the user assignment), produces a sequence that conforms to NO template.
   The twists are exactly the violations that are invisible entry by entry
   — each access alone is plausible; only the sequence betrays it. *)

let test_purpose_untwisted_conforms () =
  let config = Hospital.default_config ~seed:5 () in
  List.iter
    (fun template ->
      for seed = 1 to 20 do
        let rng = Prng.create ~seed in
        let inst = Purpose.instantiate rng config ~start_time:100 template in
        check_bool
          (Printf.sprintf "%s (seed %d) conforms" template.Purpose.name seed)
          true
          (Purpose.conforms (Purpose.steps_of_entries inst.Purpose.entries));
        check_int
          (Printf.sprintf "%s: one entry per step" template.Purpose.name)
          (List.length template.Purpose.steps)
          (List.length inst.Purpose.entries)
      done)
    Purpose.templates

let test_purpose_twisted_never_conforms () =
  let config = Hospital.default_config ~seed:5 () in
  List.iter
    (fun template ->
      List.iter
        (fun twist ->
          for seed = 1 to 20 do
            let rng = Prng.create ~seed in
            let inst = Purpose.instantiate rng config ~twist ~start_time:100 template in
            check_bool
              (Printf.sprintf "%s twisted by %s (seed %d) does not conform"
                 template.Purpose.name (Purpose.twist_to_string twist) seed)
              false
              (Purpose.conforms (Purpose.steps_of_entries inst.Purpose.entries))
          done)
        Purpose.all_twists)
    Purpose.templates

let test_purpose_entries_in_vocabulary () =
  let config = Hospital.default_config ~seed:5 () in
  let vocab = config.Hospital.vocab in
  List.iter
    (fun template ->
      let rng = Prng.create ~seed:9 in
      let inst = Purpose.instantiate rng config ~start_time:1 template in
      List.iter
        (fun (e : Hdb.Audit_schema.entry) ->
          check_bool "workflow data is a vocabulary leaf" true
            (Vocabulary.Vocab.mem_value vocab ~attr:"data" ~value:e.Hdb.Audit_schema.data
            && Vocabulary.Vocab.is_ground vocab ~attr:"data"
                 ~value:e.Hdb.Audit_schema.data);
          check_bool "workflow purpose is in the vocabulary" true
            (Vocabulary.Vocab.mem_value vocab ~attr:"purpose"
               ~value:e.Hdb.Audit_schema.purpose);
          check_bool "workflow user is staffed" true
            (Hospital.users_of_role config e.Hdb.Audit_schema.authorized <> []
            || e.Hdb.Audit_schema.authorized = "clerk"))
        inst.Purpose.entries)
    Purpose.templates

let test_purpose_twist_round_trip () =
  List.iter
    (fun twist ->
      check_bool
        (Printf.sprintf "twist %S round-trips" (Purpose.twist_to_string twist))
        true
        (Purpose.twist_of_string (Purpose.twist_to_string twist) = Some twist))
    Purpose.all_twists;
  check_bool "unknown twist rejected" true (Purpose.twist_of_string "inverted" = None)

let test_purpose_prefix_is_plausible () =
  (* a prefix of a legitimate plan is still plausible — conformance must
     not demand completed plans, or every in-flight workflow would read as
     a violation *)
  let config = Hospital.default_config ~seed:5 () in
  let rng = Prng.create ~seed:3 in
  let template = List.hd Purpose.templates in
  let inst = Purpose.instantiate rng config ~start_time:1 template in
  let steps = Purpose.steps_of_entries inst.Purpose.entries in
  for k = 1 to List.length steps do
    check_bool
      (Printf.sprintf "%d-step prefix conforms" k)
      true
      (Purpose.conforms (List.filteri (fun i _ -> i < k) steps))
  done

let () =
  Alcotest.run "workload"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "rough uniformity" `Quick test_prng_uniformity_rough;
          Alcotest.test_case "weighted pick" `Quick test_prng_pick_weighted;
        ] );
      ( "hospital",
        [ Alcotest.test_case "staff roster" `Quick test_staff_roster;
          Alcotest.test_case "policy store" `Quick test_policy_store_from_documented;
          Alcotest.test_case "informal oracle" `Quick test_is_informal_pattern;
        ] );
      ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "count & times" `Quick test_generator_count_and_times;
          Alcotest.test_case "label mix" `Quick test_generator_label_mix;
          Alcotest.test_case "labels vs status" `Quick
            test_generator_labels_consistent_with_status;
          Alcotest.test_case "violations by rogues" `Quick test_generator_violations_by_rogues;
          Alcotest.test_case "epoch partition" `Quick test_generator_epochs_partition;
          Alcotest.test_case "oracle" `Quick test_generator_oracle;
          Alcotest.test_case "practices-covered metric" `Quick test_practices_covered_metric;
        ] );
      ( "scenario",
        [ Alcotest.test_case "fixture shapes" `Quick test_scenario_shapes;
          Alcotest.test_case "fixtures in vocabulary" `Quick test_scenario_vocabulary_closed;
          Alcotest.test_case "generated values in vocabulary" `Quick
            test_generator_vocabulary_closed;
        ] );
      ( "purpose workflows",
        [ Alcotest.test_case "untwisted plans conform" `Quick
            test_purpose_untwisted_conforms;
          Alcotest.test_case "twisted plans never conform" `Quick
            test_purpose_twisted_never_conforms;
          Alcotest.test_case "entries stay in the vocabulary" `Quick
            test_purpose_entries_in_vocabulary;
          Alcotest.test_case "twist names round-trip" `Quick test_purpose_twist_round_trip;
          Alcotest.test_case "plan prefixes are plausible" `Quick
            test_purpose_prefix_is_plausible;
        ] );
    ]
