(* E18: overload-storm admission sweep (`make overload`).

   Four gates over the multi-tenant admission controller, each a claim the
   DESIGN makes about overload behaviour:

   - fairness:       under a 10:1 hot-tenant storm arbitrated by
                     deficit-round-robin drains, every victim tenant keeps
                     at least 80% of its no-storm baseline throughput
                     (in practice: exactly 100% — the hot tenant queues
                     behind its own share);
   - all-or-nothing: a shed ingestion batch leaves the site untouched —
                     store length, sequence floor and quarantine all
                     unchanged — and carries an honest retry hint;
   - invariant 10:   the chaos harness's admission-fairness invariant
                     holds over a full seeds x 400-step sweep with
                     Overload_storm in the action alphabet;
   - brownout:       every refinement epoch run under a brownout grant
                     reports Coverage.Lower_bound carrying the Brownout
                     reason — a deliberately truncated run never claims
                     exactness, and says why.

   Results land in BENCH_overload.json:

     dune exec bench/overload_sweep.exe            -- default: 20 seeds x 400 steps
     dune exec bench/overload_sweep.exe -- 8 250   -- 8 seeds x 250-step chaos part *)

module Adm = Audit_mgmt.Admission

(* --- part A: DRR fairness under a 10:1 storm ------------------------- *)

let epochs = 30
let epoch_ms = 1000
let serve_limit = 40
let storm_ratio = 10

let fairness_classes () =
  [ ("blue", Adm.(class_config ~rows:(quota ~capacity:60 ~refill_per_s:30 ()) ()));
    ("green", Adm.(class_config ~rows:(quota ~capacity:60 ~refill_per_s:30 ()) ()));
    (* The hot tenant's bucket never binds: fairness must come from the
       drain's deficit round-robin, not from its own quota. *)
    ("hot", Adm.(class_config ~rows:(quota ~capacity:2000 ~refill_per_s:1000 ()) ()));
  ]

let make_controller () =
  let adm = Adm.create ~now:0 (fairness_classes ()) in
  Adm.assign adm ~tenant:"blue" "blue";
  Adm.assign adm ~tenant:"green" "green";
  Adm.assign adm ~tenant:"hot" "hot";
  adm

let request tenant i = (Adm.principal ~tenant ~request:(string_of_int i) (), Adm.cost ~rows:1 (), Adm.Mutation)

(* One run over [epochs] drains; [storm] adds the 10:1 hot tenant.
   Returns (admitted per victim tenant, hot admitted, sheds, brownouts). *)
type fair_run = {
  victims : (string * int) list;
  hot_admitted : int;
  sheds : int;
  mutation_brownouts : int;
}

let fairness_run ~seed ~storm =
  let rng = Splitmix.create ~seed in
  let adm = make_controller () in
  let admitted = Hashtbl.create 4 in
  let count tenant = try Hashtbl.find admitted tenant with Not_found -> 0 in
  let sheds = ref 0 and brownouts = ref 0 in
  for e = 1 to epochs do
    let now = e * epoch_ms in
    let victim_load tenant =
      List.init (3 + Splitmix.int rng 6) (fun i -> request tenant ((e * 100) + i))
    in
    let blue = victim_load "blue" in
    let green = victim_load "green" in
    let hot =
      if storm then
        List.init
          (storm_ratio * (List.length blue + List.length green) / 2)
          (fun i -> request "hot" ((e * 1000) + i))
      else []
    in
    let results = Adm.drain adm ~now ~serve_limit (blue @ green @ hot) in
    List.iter
      (fun ((p : Adm.principal), decision) ->
        match decision with
        | Adm.Admitted _ -> Hashtbl.replace admitted p.Adm.tenant (count p.Adm.tenant + 1)
        | Adm.Brownout _ -> incr brownouts
        | Adm.Rejected _ -> incr sheds)
      results
  done;
  { victims = [ ("blue", count "blue"); ("green", count "green") ];
    hot_admitted = count "hot";
    sheds = !sheds;
    mutation_brownouts = !brownouts;
  }

(* --- part B: all-or-nothing sheds ------------------------------------ *)

let mk_entry i =
  Hdb.Audit_schema.entry ~time:i ~op:Hdb.Audit_schema.Allow
    ~user:(Printf.sprintf "user-%d" (i mod 3))
    ~data:"mri" ~purpose:"diagnosis" ~authorized:"radiologist"
    ~status:Hdb.Audit_schema.Regular

(* Push random batches through a gated site; every shed must leave the
   site byte-identical and carry a retry hint (the class has capacity and
   refill, so the cost is always eventually affordable).  Returns
   (sheds, partial-application count, missing-hint count). *)
let shed_run ~seed =
  let rng = Splitmix.create ~seed:(seed + 7919) in
  let adm =
    Adm.create ~now:0
      [ ("tight", Adm.(class_config ~rows:(quota ~capacity:8 ~refill_per_s:4 ()) ())) ]
  in
  Adm.assign adm ~tenant:"clinic" "tight";
  let site = Audit_mgmt.Site.create ~name:"gated" () in
  let principal = Adm.principal ~tenant:"clinic" () in
  let sheds = ref 0 and partial = ref 0 and hintless = ref 0 in
  let k = ref 0 in
  for batch = 1 to 40 do
    let now = batch * 100 in
    let n = 1 + Splitmix.int rng 6 in
    let entries = List.init n (fun _ -> incr k; mk_entry !k) in
    let before =
      Audit_mgmt.Site.(length site, next_seq site, quarantined_count site)
    in
    match Audit_mgmt.Site.ingest_entries_admitted adm site ~now ~principal entries with
    | Ok _ -> ()
    | Error r ->
      incr sheds;
      let after =
        Audit_mgmt.Site.(length site, next_seq site, quarantined_count site)
      in
      if before <> after then incr partial;
      (match r.Adm.retry_after_ms with
      | Some ms when ms >= 1 -> ()
      | _ -> incr hintless)
  done;
  (!sheds, !partial, !hintless)

(* --- part D: brownout epochs are lower bounds ------------------------ *)

(* A refinement caller whose class can only half-afford the declared cost
   browns out: the epoch runs under the tightened grant and must label its
   coverage Lower_bound with a Brownout reason.  A generously classed
   control epoch over the same complete trail stays Exact. *)
let brownout_run () =
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~training_minimum:1 ~vocab ~p_ps () in
  let store = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  Hdb.Audit_store.append_all store (Workload.Scenario.table1_entries ());
  Prima_system.System.set_budget_classes system
    [ (* refine ~principal declares 256 rows: 200 covers half but not the
         strict bar, so every admit is a brownout. *)
      ("throttled", Adm.(class_config ~rows:(quota ~capacity:200 ~refill_per_s:200 ()) ()));
      ("gold", Adm.(class_config ~rows:(quota ~capacity:4096 ~refill_per_s:4096 ()) ()));
    ];
  Prima_system.System.assign_tenant system ~tenant:"throttled-analyst"
    ~class_name:"throttled";
  Prima_system.System.assign_tenant system ~tenant:"gold-analyst" ~class_name:"gold";
  let throttled = Adm.principal ~tenant:"throttled-analyst" () in
  let gold = Adm.principal ~tenant:"gold-analyst" () in
  let rounds = 5 in
  let ok = ref 0 and lower = ref 0 and with_brownout = ref 0 and errors = ref 0 in
  for _ = 1 to rounds do
    Prima_system.System.advance_clock system epoch_ms;
    match Prima_system.System.refine system ~principal:throttled with
    | Error _ -> incr errors
    | Ok report ->
      incr ok;
      (match report.Prima_core.Refinement.qualifier with
      | Prima_core.Coverage.Lower_bound e ->
        incr lower;
        if List.mem Prima_core.Coverage.Brownout e.Prima_core.Coverage.reasons then
          incr with_brownout
      | Prima_core.Coverage.Exact -> ())
  done;
  Prima_system.System.advance_clock system epoch_ms;
  let control_exact =
    match Prima_system.System.refine system ~principal:gold with
    | Ok report -> report.Prima_core.Refinement.qualifier = Prima_core.Coverage.Exact
    | Error _ -> false
  in
  let gov = Prima_system.System.governance system in
  (!ok, !lower, !with_brownout, !errors, gov.Prima_system.System.brownout_epochs, control_exact)

(* --- sweep ----------------------------------------------------------- *)

type fairness_row = {
  seed : int;
  base_blue : int;
  base_green : int;
  storm_blue : int;
  storm_green : int;
  ratio : float;
  hot : int;
  shed : int;
}

let () =
  let seeds, steps =
    match Sys.argv with
    | [| _; s; n |] -> (int_of_string s, int_of_string n)
    | [| _; s |] -> (int_of_string s, 400)
    | _ -> (20, 400)
  in
  Fmt.pr "overload sweep: %d seeds, %d:1 storms, serve limit %d/drain@." seeds storm_ratio
    serve_limit;

  (* A: fairness *)
  let rows = ref [] in
  let mutation_brownouts = ref 0 in
  for seed = 1 to seeds do
    let base = fairness_run ~seed ~storm:false in
    let storm = fairness_run ~seed ~storm:true in
    mutation_brownouts := !mutation_brownouts + base.mutation_brownouts + storm.mutation_brownouts;
    let get run t = List.assoc t run.victims in
    let ratio =
      let b = get base "blue" + get base "green" in
      let s = get storm "blue" + get storm "green" in
      if b = 0 then 1.0 else float_of_int s /. float_of_int b
    in
    rows :=
      { seed;
        base_blue = get base "blue";
        base_green = get base "green";
        storm_blue = get storm "blue";
        storm_green = get storm "green";
        ratio;
        hot = storm.hot_admitted;
        shed = storm.sheds;
      }
      :: !rows;
    Fmt.pr "seed %3d  victims %3d+%3d baseline -> %3d+%3d under storm (%.0f%%), hot %3d, shed %3d@."
      seed (get base "blue") (get base "green") (get storm "blue") (get storm "green")
      (100. *. ratio) storm.hot_admitted storm.sheds
  done;
  let rows = List.rev !rows in
  let min_ratio = List.fold_left (fun acc r -> min acc r.ratio) 1.0 rows in

  (* B: all-or-nothing sheds *)
  let total_sheds = ref 0 and partials = ref 0 and hintless = ref 0 in
  for seed = 1 to seeds do
    let s, p, h = shed_run ~seed in
    total_sheds := !total_sheds + s;
    partials := !partials + p;
    hintless := !hintless + h
  done;
  Fmt.pr "@.sheds: %d across %d gated sites, %d partially applied, %d missing a retry hint@."
    !total_sheds seeds !partials !hintless;

  (* C: invariant-10 chaos sweep with storms in the alphabet *)
  Fmt.pr "@.chaos: %d seeds x %d-step schedules (Overload_storm weighted in)@." seeds steps;
  let violations = ref 0 in
  let storms = ref 0 and storm_admitted = ref 0 and storm_shed = ref 0 in
  for seed = 1 to seeds do
    let report = Chaos.Harness.run ~seed ~steps () in
    storms := !storms + report.Chaos.Harness.storms;
    storm_admitted := !storm_admitted + report.Chaos.Harness.storm_admitted;
    storm_shed := !storm_shed + report.Chaos.Harness.storm_shed;
    if not (Chaos.Harness.passed report) then begin
      incr violations;
      Fmt.pr "%a@." Chaos.Harness.pp report
    end
  done;
  Fmt.pr "chaos: %d violation(s); %d storms drove %d admits / %d sheds through the gate@."
    !violations !storms !storm_admitted !storm_shed;

  (* D: brownout epochs *)
  let br_ok, br_lower, br_brownout, br_errors, br_counted, control_exact = brownout_run () in
  Fmt.pr "@.brownout: %d/%d throttled epochs labelled Lower_bound, %d carrying Brownout (%d \
          errors, governance counted %d); generous control epoch exact: %b@."
    br_lower br_ok br_brownout br_errors br_counted control_exact;

  (* gates + JSON *)
  let fair_ok = min_ratio >= 0.8 in
  let shed_ok = !partials = 0 && !hintless = 0 && !total_sheds > 0 in
  let chaos_ok = !violations = 0 && !storms > 0 in
  let brownout_ok =
    br_errors = 0 && br_ok > 0 && br_lower = br_ok && br_brownout = br_ok && control_exact
  in
  let no_mutation_brownout = !mutation_brownouts = 0 in
  let oc = open_out "BENCH_overload.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"E18 overload-storm admission\",\n";
  p "  \"seeds\": %d,\n  \"storm_ratio\": %d,\n  \"serve_limit\": %d,\n  \"epochs\": %d,\n"
    seeds storm_ratio serve_limit epochs;
  p "  \"min_victim_ratio\": %.3f,\n" min_ratio;
  p "  \"sheds\": %d,\n  \"partial_sheds\": %d,\n  \"hintless_sheds\": %d,\n" !total_sheds
    !partials !hintless;
  p "  \"mutation_brownouts\": %d,\n" !mutation_brownouts;
  p "  \"chaos\": {\"seeds\": %d, \"steps\": %d, \"violations\": %d, \"storms\": %d, \
     \"storm_admitted\": %d, \"storm_shed\": %d},\n"
    seeds steps !violations !storms !storm_admitted !storm_shed;
  p "  \"brownout\": {\"epochs\": %d, \"lower_bound\": %d, \"errors\": %d, \
     \"control_exact\": %b},\n"
    br_ok br_lower br_errors control_exact;
  p "  \"fairness\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      p
        "    {\"seed\": %d, \"baseline\": [%d, %d], \"storm\": [%d, %d], \"ratio\": %.3f, \
         \"hot_admitted\": %d, \"shed\": %d}%s\n"
        r.seed r.base_blue r.base_green r.storm_blue r.storm_green r.ratio r.hot r.shed
        (if i = n - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc;
  Fmt.pr "@.wrote BENCH_overload.json@.";
  if fair_ok && shed_ok && chaos_ok && brownout_ok && no_mutation_brownout then
    Fmt.pr "All gates passed: victims kept >= %.0f%% of baseline, every shed all-or-nothing \
            and hinted, invariant 10 clean, every brownout a lower bound.@."
      (100. *. min_ratio)
  else begin
    Fmt.pr
      "OVERLOAD SWEEP GATE FAILED: fairness %b (min ratio %.2f), sheds %b (%d partial, %d \
       hintless), chaos %b (%d violations, %d storms), brownout %b, mutation brownouts %d@."
      fair_ok min_ratio shed_ok !partials !hintless chaos_ok !violations !storms brownout_ok
      !mutation_brownouts;
    exit 1
  end
