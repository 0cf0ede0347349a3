(* The requests a workload makes, each either timed as one black-box call
   (untraced) or made as the black-box call and then replayed stage by
   stage through the public functions it composes, on the same state
   (traced).  A traced request checks that its replay returned exactly
   what the black-box call did.

   The black-box call goes first so that it does all of the request's
   work: the replay is a second pass over unchanged inputs, and whatever
   the call did that a second pass need not redo — archiving freshly
   ingested entries into the shard store, above all — shows in the
   residual rather than in a stage.  Each pass starts from a collected
   heap, so neither pays the other's garbage-collection debt. *)

module System = Prima_system.System
module Federation = Audit_mgmt.Federation
module Site = Audit_mgmt.Site
module Rule = Prima_core.Rule
module Policy = Prima_core.Policy
module Coverage = Prima_core.Coverage
module Prima = Prima_core.Prima
module Refinement = Prima_core.Refinement
module Budget = Relational.Budget

(* Attempts and failures: requests that raised or returned something
   unexpected, and output checks that missed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable misses : string list;  (** distinct failed checks, newest first *)
}

let tally () = { attempted = 0; failed = 0; misses = [] }

let check tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if not (List.mem what tally.misses) then tally.misses <- what :: tally.misses
  end

type tracing = {
  trace : Trace.t;
  mutable merged_to : int;
      (** entries the federation held at the last replayed consolidation *)
}

let stats_equal (a : Coverage.stats) (b : Coverage.stats) =
  a.Coverage.overlap = b.Coverage.overlap
  && a.Coverage.denominator = b.Coverage.denominator
  && Float.equal a.Coverage.coverage b.Coverage.coverage
  && List.equal Rule.equal a.Coverage.uncovered b.Coverage.uncovered

let count n = float_of_int n
let ratio n d = float_of_int n /. float_of_int (max 1 d)

(* --- ingest: WAL-logged append, then fsync, per site --- *)

let ingest ?tracing sites batches =
  let plain () =
    List.iter2
      (fun site batch ->
        Site.ingest_entries site batch;
        Site.sync_wal site)
      sites batches
  in
  match tracing with
  | None -> snd (Trace.timed plain)
  | Some t ->
    snd
      (Trace.span_timed t.trace "ingest" (fun () ->
           List.iter2
             (fun site batch ->
               Trace.span t.trace "site.ingest"
                 ~counts:(fun () -> [ ("entries", count (List.length batch)) ])
                 (fun () -> Site.ingest_entries site batch);
               Trace.span t.trace "durable.sync" (fun () -> Site.sync_wal site))
             sites batches))

(* --- System.sync_audit, replayed --- *)

let retries (health : Audit_mgmt.Health.t) =
  List.fold_left
    (fun acc (s : Audit_mgmt.Health.site_health) ->
      match s.Audit_mgmt.Health.status with
      | Audit_mgmt.Health.Delivered { retries } -> acc + retries
      | Audit_mgmt.Health.Stale _ | Audit_mgmt.Health.Skipped _ -> acc)
    0 health.Audit_mgmt.Health.sites

let replay_sync t sys =
  let fed = System.federation sys in
  let result =
    Trace.span t.trace "federation.consolidate"
      ~counts:(fun (r : Federation.result_t) ->
        let merged = List.length r.Federation.entries in
        [ ("entries", count merged);
          ("reread_ratio", ratio merged (Federation.total_entries fed - t.merged_to));
          ("retries", count (retries r.Federation.health));
        ])
      (fun () -> Federation.consolidated_result fed)
  in
  t.merged_to <- Federation.total_entries fed;
  let p_al =
    Trace.span t.trace "to_policy.convert"
      ~counts:(fun p -> [ ("rules", count (Policy.cardinality p)) ])
      (fun () -> Audit_mgmt.To_policy.policy_of_entries result.Federation.entries)
  in
  let prima = System.prima sys in
  Trace.span t.trace "prima.ingest" (fun () ->
      Prima.reset_audit prima;
      Prima.ingest_rules prima (Policy.rules p_al))

let project t p =
  Trace.span t.trace "coverage.project" (fun () ->
      Policy.project p ~attrs:Vocabulary.Audit_attrs.pattern)

(* --- System.coverage_qualified --- *)

(* Prima.coverage: Coverage.aligned under set, then bag semantics; each
   aligned call projects both policies. *)
let replay_coverage t sys =
  replay_sync t sys;
  let prima = System.prima sys in
  let vocab = Prima.vocab prima in
  let aligned name compute =
    let p_x = project t (Prima.policy_store prima) in
    let p_y = project t (Prima.audit_policy prima) in
    Trace.span t.trace name (fun () -> compute vocab ~p_x ~p_y)
  in
  let set = aligned "coverage.set" (fun vocab -> Coverage.compute vocab) in
  let bag = aligned "coverage.bag" Coverage.compute_bag in
  (set, bag)

let coverage ?tracing tally sys =
  match tracing with
  | None -> Trace.timed (fun () -> System.coverage_qualified sys)
  | Some t ->
    Trace.span t.trace "coverage" (fun () ->
        Gc.full_major ();
        let ((q : System.qualified_coverage), _) as result =
          Trace.span_timed t.trace "system.coverage_qualified" (fun () ->
              System.coverage_qualified sys)
        in
        Gc.full_major ();
        let set, bag = replay_coverage t sys in
        check tally
          (stats_equal set q.System.set_semantics.Coverage.stats
          && stats_equal bag q.System.bag_semantics.Coverage.stats)
          "replayed coverage differs from System.coverage_qualified";
        result)

(* --- System.refine --- *)

type replayed_epoch = {
  patterns : Rule.t list;
  accepted : Rule.t list;
  before : Coverage.stats;
  after : Coverage.stats;
}

(* Refinement.run_epoch with the System's configuration (ungoverned SQL
   backend): Filter, materialize + GROUP BY, Prune, acceptance, then the
   two bag-coverage passes over the projected trail. *)
let replay_refine t sys ~p_ps =
  replay_sync t sys;
  let prima = System.prima sys in
  let vocab = Prima.vocab prima in
  let config = Prima.refinement_config prima in
  let p_al = Prima.audit_policy prima in
  let practice =
    Trace.span t.trace "filter"
      ~counts:(fun p -> [ ("practice_rows", count (Policy.cardinality p)) ])
      (fun () -> Prima_core.Filter.run ~keep_prohibitions:config.Refinement.keep_prohibitions p_al)
  in
  let analysis =
    match config.Refinement.backend with
    | Prima_core.Extract_patterns.Sql c -> c
    | Prima_core.Extract_patterns.Mining _ -> invalid_arg "replay covers the SQL backend only"
  in
  let patterns =
    if Policy.cardinality practice = 0 then []
    else begin
      let engine = Relational.Engine.create () in
      let table_name = "practice" in
      ignore
        (Trace.span t.trace "data_analysis.materialize" (fun () ->
             Prima_core.Data_analysis.materialize engine ~table_name practice));
      let budget = Budget.create Budget.unlimited in
      Trace.span t.trace "data_analysis.query"
        ~counts:(fun ps ->
          let n = List.length ps in
          [ ("patterns", count n);
            ("tuples_per_pattern", ratio (Budget.stats budget).Relational.Errors.tuples n);
          ])
        (fun () -> Prima_core.Data_analysis.run ~budget engine ~table_name analysis)
    end
  in
  let useful =
    Trace.span t.trace "prune"
      ~counts:(fun u -> [ ("useful_ratio", ratio (List.length u) (List.length patterns)) ])
      (fun () -> Prima_core.Prune.run vocab ~patterns ~p_ps)
  in
  let accepted = Refinement.accept config.Refinement.acceptance useful in
  let p_al_proj = project t p_al in
  let bag p_x = Trace.span t.trace "coverage.bag" (fun () -> Coverage.compute_bag vocab ~p_x ~p_y:p_al_proj) in
  let before = bag (project t p_ps) in
  let after = bag (project t (Policy.add_rules p_ps accepted)) in
  { patterns; accepted; before; after }

let refine ?tracing tally sys =
  match tracing with
  | None -> Trace.timed (fun () -> System.refine sys)
  | Some t ->
    Trace.span t.trace "refine" (fun () ->
        let p_ps = Prima.policy_store (System.prima sys) in
        Gc.full_major ();
        let ((report : (Refinement.epoch_report, string) result), _) as result =
          Trace.span_timed t.trace "system.refine" (fun () -> System.refine sys)
        in
        Gc.full_major ();
        let r = replay_refine t sys ~p_ps in
        check tally
          (match report with
          | Ok e ->
            List.equal Rule.equal r.patterns e.Refinement.patterns
            && List.equal Rule.equal r.accepted e.Refinement.accepted
            && stats_equal r.before e.Refinement.coverage_before
            && stats_equal r.after e.Refinement.coverage_after
          | Error _ -> false)
          "replayed refinement differs from System.refine";
        result)

(* --- Control_center.query, as a clinician waits for it --- *)

type query = {
  user : string;
  role : string;
  purpose : string;
  data : string;
  patient : string;
  sql : string;
  break_glass : bool;
}

let query ?tracing tally control (q : query) =
  let black_box () =
    Hdb.Control_center.query ~break_glass:q.break_glass control ~user:q.user ~role:q.role
      ~purpose:q.purpose q.sql
  in
  match tracing with
  | None -> Trace.timed black_box
  | Some t ->
    Trace.span t.trace "query" (fun () ->
        let ((outcome : (Hdb.Enforcement.outcome, Hdb.Enforcement.error) result), _) as result =
          Trace.span_timed t.trace "system.query" black_box
        in
        let select =
          match Trace.span t.trace "relational.parse" (fun () -> Relational.Engine.parse q.sql) with
          | Relational.Sql_ast.Select s -> s
          | _ -> invalid_arg "clinic queries are SELECTs"
        in
        let ctx = { Hdb.Enforcement.user = q.user; role = q.role; purpose = q.purpose } in
        let runs =
          match
            Trace.span t.trace "enforcement.rewrite" (fun () ->
                Hdb.Enforcement.rewrite (Hdb.Control_center.enforcement control) ctx select)
          with
          | Ok (rewritten, _, _, _) -> Some rewritten
          | Error (Hdb.Enforcement.Denied _) when q.break_glass -> Some select
          | Error _ -> None
        in
        let rows =
          Option.map
            (fun s ->
              let budget = Budget.create Budget.unlimited in
              Trace.span t.trace "relational.exec"
                ~counts:(fun (r : Relational.Executor.result_set) ->
                  let n = List.length r.Relational.Executor.rows in
                  [ ("rows", count n);
                    ("tuples_per_row", ratio (Budget.stats budget).Relational.Errors.tuples n);
                  ])
                (fun () ->
                  Relational.Engine.query_select ~budget (Hdb.Control_center.engine control) s))
            runs
        in
        check tally
          (match outcome, runs, rows with
          | Ok o, Some s, Some r ->
            String.equal o.Hdb.Enforcement.rewritten_sql (Relational.Sql_ast.select_to_sql s)
            && List.equal Relational.Row.equal o.Hdb.Enforcement.result.Relational.Executor.rows
                 r.Relational.Executor.rows
          | Error (Hdb.Enforcement.Denied _), None, None -> true
          | _ -> false)
          "replayed query differs from Control_center.query";
        result)
