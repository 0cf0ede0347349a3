(* Algorithm 2: Refinement(P_PS, P_AL, V) — the feedback loop between real
   and ideal policy.

     Practice        <- Filter(P_AL)                  (Algorithm 3)
     Patterns        <- extractPatterns(Practice, V)  (Algorithms 4-5)
     usefulPatterns  <- Prune(Patterns, P_PS, V)      (Algorithm 6)

   plus the human acceptance step the paper mandates after Prune, modelled
   as a pluggable [acceptance] policy, and an epoch driver that folds the
   accepted patterns back into the policy store and tracks coverage. *)

let log_src = Logs.Src.create "prima.refinement" ~doc:"PRIMA policy refinement runs"

module Log = (val Logs.src_log log_src : Logs.LOG)

type acceptance =
  | Accept_all (* trusting privacy officer: every useful pattern adopted *)
  | Reject_all (* audit-only mode: nothing changes *)
  | Oracle of (Rule.t -> bool) (* e.g. ground-truth classifier in experiments *)

type config = {
  backend : Extract_patterns.backend;
  keep_prohibitions : bool;
  acceptance : acceptance;
}

let default_config =
  { backend = Extract_patterns.default_backend;
    keep_prohibitions = false;
    acceptance = Accept_all;
  }

(* Pattern extraction under the epoch's budget (if any); the ungoverned
   path is wrapped as an exact result so the epoch logic is uniform. *)
let extract config limits practice : Data_analysis.governed =
  match limits with
  | None -> Data_analysis.exact (Extract_patterns.run ~backend:config.backend practice)
  | Some limits -> Extract_patterns.run_governed ~backend:config.backend ~limits practice

let accept acceptance patterns =
  match acceptance with
  | Accept_all -> patterns
  | Reject_all -> []
  | Oracle judge -> List.filter judge patterns

type epoch_report = {
  practice_size : int;
  patterns : Rule.t list;
  useful : Rule.t list;
  accepted : Rule.t list;
  p_ps' : Policy.t;
  coverage_before : Coverage.stats;
  coverage_after : Coverage.stats;
  (* Exact when the epoch's evidence carries no reason: the caller's
     (a partial or unverified trail, a brownout) plus [Budget_truncated]
     when extraction degraded to a prefix of the practice table. *)
  qualifier : Coverage.qualifier;
  budget_stats : Relational.Errors.budget_stats; (* resources extraction used *)
}

(* The tail both epoch runners share: Prune, the acceptance policy, the
   store extension, and the bag-coverage readings (Section 5) before and
   after, which [coverage] computes for a store over the epoch's trail. *)
let conclude config ~evidence ~vocab ~p_ps ~practice_size ~coverage
    (extraction : Data_analysis.governed) : epoch_report =
  let patterns = extraction.Data_analysis.patterns in
  let stats = extraction.Data_analysis.stats in
  let evidence =
    if not extraction.Data_analysis.degraded then evidence
    else begin
      Log.warn (fun m ->
          m "pattern extraction hit its resource budget (%s); patterns are a lower bound"
            (Relational.Errors.stats_to_string stats));
      Coverage.join evidence { Coverage.exact with reasons = [ Coverage.Budget_truncated stats ] }
    end
  in
  let useful = Prune.run vocab ~patterns ~p_ps in
  let accepted = accept config.acceptance useful in
  let p_ps' = Policy.add_rules p_ps accepted in
  let coverage_before = coverage p_ps in
  let coverage_after = coverage p_ps' in
  Log.info (fun m ->
      m "epoch: %d practice entries, %d patterns, %d useful, %d accepted, coverage %.0f%% -> %.0f%%"
        practice_size (List.length patterns) (List.length useful) (List.length accepted)
        (100. *. coverage_before.Coverage.coverage)
        (100. *. coverage_after.Coverage.coverage));
  { practice_size;
    patterns;
    useful;
    accepted;
    p_ps';
    coverage_before;
    coverage_after;
    qualifier = (Coverage.qualify evidence coverage_after).Coverage.qualifier;
    budget_stats = stats;
  }

let pattern_attrs = Vocabulary.Audit_attrs.pattern

(* One refinement epoch over a policy: Filter, extraction, then the shared
   tail.  The audit policy is projected onto the pattern attributes once
   and shared by both coverage calls; the second call grounds the same
   rules as the first plus the accepted patterns, so it runs almost
   entirely out of the grounding memo.  This is the reference the coded
   epoch below must agree with. *)
let run_epoch ?(config = default_config) ?limits ~vocab ~p_ps ~p_al () : epoch_report =
  let practice = Filter.run ~keep_prohibitions:config.keep_prohibitions p_al in
  let p_al_proj = Policy.project p_al ~attrs:pattern_attrs in
  conclude config ~evidence:Coverage.exact ~vocab ~p_ps
    ~practice_size:(Policy.cardinality practice)
    ~coverage:(fun p_x ->
      Coverage.compute_bag vocab ~p_x:(Policy.project p_x ~attrs:pattern_attrs) ~p_y:p_al_proj)
    (extract config limits practice)

(* The Algorithm 5 settings the fused pass computes exactly: SQL grouping
   by the pattern attributes, with no HAVING conjunct beyond the paper's
   distinct-user condition, over a trail whose every entry has one term
   per grouped column and one user.  The epoch must also be ungoverned. *)
let fusable config trail =
  let same_set a b = List.sort_uniq String.compare a = List.sort_uniq String.compare b in
  match config with
  | { backend = Extract_patterns.Sql analysis; _ }
    when same_set analysis.Data_analysis.attributes pattern_attrs
         && (analysis.Data_analysis.condition = None
            || analysis.Data_analysis.condition = Data_analysis.default_config.condition)
         && Trail.regular trail ->
    Some analysis
  | _ -> None

let fuses config trail = Option.is_some (fusable config trail)

(* The same epoch over a coded trail.  Where the epoch is ungoverned and
   [fusable] holds, Filter and the GROUP BY run as one pass over the codes;
   otherwise the trail's rules take the reference path.  Coverage reads the
   codes either way. *)
let run_trail_epoch ?(config = default_config) ?limits ?(evidence = Coverage.exact) ~vocab
    ~p_ps trail : epoch_report =
  let keep_prohibitions = config.keep_prohibitions in
  let practice_size, extraction =
    match (limits, fusable config trail) with
    | None, Some analysis ->
      let f = analysis.Data_analysis.min_frequency in
      let frequent =
        match analysis.Data_analysis.comparator with
        | Data_analysis.At_least -> fun n -> n >= f
        | Data_analysis.More_than -> fun n -> n > f
      in
      let practice_size, patterns =
        Trail.frequent_groups trail ~keep_prohibitions ~frequent
          ~distinct_users:(analysis.Data_analysis.condition <> None)
      in
      (practice_size, Data_analysis.exact patterns)
    | _ ->
      let practice = Filter.run ~keep_prohibitions (Trail.policy trail) in
      (Policy.cardinality practice, extract config limits practice)
  in
  conclude config ~evidence ~vocab ~p_ps ~practice_size
    ~coverage:(fun p_x ->
      Trail.coverage_bag vocab trail ~p_x:(Policy.project p_x ~attrs:pattern_attrs))
    extraction

(* Iterated refinement over a stream of audit batches: each epoch sees one
   batch, extends the store, and the next batch is judged against the
   refined store — the Figure 2 trajectory. *)
let run_epochs ?(config = default_config) ~vocab ~p_ps ~batches () :
    epoch_report list * Policy.t =
  let reports, final_ps =
    List.fold_left
      (fun (reports, store) batch ->
        let report = run_epoch ~config ~vocab ~p_ps:store ~p_al:batch () in
        (report :: reports, report.p_ps'))
      ([], p_ps) batches
  in
  (List.rev reports, final_ps)
