(* The three workloads.  Each drives the real Prima_system.System loop as one
   client in a closed loop, from inputs generated (by Workload.Generator,
   from the seed) before any timer starts.

   A run repeats an episode — set-up, then a fixed amount of timed work —
   until its time is up.  Every episode of a run gets the same inputs on a
   fresh System, so the episodes of a run are the same work and their
   medians are steady; outputs are checked after each episode, outside the
   timers.  Between timed sections an episode reads the host's speed
   ({!Calibration.sample}). *)

module System = Prima_system.System
module Federation = Audit_mgmt.Federation
module Site = Audit_mgmt.Site
module Generator = Workload.Generator
module Hospital = Workload.Hospital
module Rule = Prima_core.Rule
module Policy = Prima_core.Policy
module Coverage = Prima_core.Coverage
module Prima = Prima_core.Prima
module Refinement = Prima_core.Refinement
module R = Requests

type samples = {
  mutable setup_s : Trace.timing list;
  mutable wall_s : Trace.timing list;
  mutable coverage : Trace.timing list;
  mutable refine : Trace.timing list;
  mutable enforce : Trace.timing list;
  mutable ingest : Trace.timing list;  (** per batch through Site.ingest_entries + sync_wal *)
  mutable ingested : int;  (** entries in those batches *)
}

let samples () =
  { setup_s = []; wall_s = []; coverage = []; refine = []; enforce = []; ingest = []; ingested = 0 }

(* Timed pieces of one episode's work, summed into its wall time. *)
type wall = {
  from : int64;
  mutable total : float;
}

let wall () = { from = Trace.now_ns (); total = 0. }

let piece w f =
  let r, t = Trace.timed f in
  w.total <- w.total +. t.Trace.seconds;
  r

let close_wall s w =
  s.wall_s <- { Trace.started = w.from; ended = Trace.now_ns (); seconds = w.total } :: s.wall_s

(* Durable-layer totals read off one episode's Systems once it ends. *)
type durable_totals = {
  mutable syncs : int;
  mutable wal_bytes : int;
  mutable wal_entries : int;
  mutable audit_bytes : int;
  mutable audit_entries : int;
}

let durable_totals () =
  { syncs = 0; wal_bytes = 0; wal_entries = 0; audit_bytes = 0; audit_entries = 0 }

let add_wal totals log ~entries =
  let device = Durable.Log.wal_device log in
  totals.syncs <- totals.syncs + Durable.Device.syncs device;
  totals.wal_bytes <- totals.wal_bytes + Durable.Device.durable_size device;
  totals.wal_entries <- totals.wal_entries + entries

let add_audit_store totals sys =
  let store = Hdb.Control_center.audit_store (System.control sys) in
  totals.audit_bytes <- totals.audit_bytes + Hdb.Audit_store.encoded_bytes store;
  totals.audit_entries <- totals.audit_entries + Hdb.Audit_store.length store

let add_sites_wal totals sites =
  List.iter
    (fun site -> Option.iter (fun log -> add_wal totals log ~entries:(Site.length site)) (Site.wal site))
    sites

module type S = sig
  type inputs

  val name : string
  val generate : seed:int -> inputs
  val describe : inputs -> string

  val warm_up : inputs -> unit
  (** Untimed; fills the process-wide grounding memo before any timing. *)

  val episode :
    ?tracing:R.tracing -> inputs -> samples -> R.tally -> durable_totals -> unit
end

(* --- shared set-up --- *)

let hospital ~seed ~accesses =
  { (Hospital.default_config ~seed ()) with Hospital.total_accesses = accesses }

(* The privacy officer of the paper's acceptance step: adopt exactly the
   informal practices the generator planted. *)
let new_system ?storage (cfg : Hospital.config) =
  System.create ?storage
    ~config:
      { Refinement.default_config with
        Refinement.acceptance = Refinement.Oracle (Generator.oracle cfg)
      }
    ~vocab:cfg.Hospital.vocab ~p_ps:(Hospital.policy_store cfg) ()

(* WAL-backed sites reached through the production path, wired as in
   bench/federation_sweep.ml: a fault wrapper with no faults, a breaker per
   site, and an attached sharded archive. *)
let add_sites sys n =
  let sites =
    List.init n (fun i ->
        let site = Site.create ~name:(Printf.sprintf "site-%d" (i + 1)) () in
        Site.attach_wal site (Durable.Log.create ~seed:(i + 1) ());
        site)
  in
  List.iteri
    (fun i site ->
      System.add_faulty_site sys
        (Audit_mgmt.Fault.wrap ~config:Audit_mgmt.Fault.no_faults ~seed:(100 + i) site))
    sites;
  System.attach_archive sys (Audit_mgmt.Shard_store.create ~seed:7 ());
  sites

(* Entry [i] goes to site [i mod n], so every site's stream stays in time
   order and the consolidated view is the generated trail itself. *)
let deal n entries =
  let per_site = Array.make n [] in
  Array.iteri (fun i e -> per_site.(i mod n) <- e :: per_site.(i mod n)) entries;
  Array.to_list (Array.map List.rev per_site)

let record_ingest s ~entries t =
  s.ingested <- s.ingested + entries;
  s.ingest <- t :: s.ingest

let exact (q : Coverage.qualified) = Coverage.is_exact q

let qualified_exact (q : System.qualified_coverage) =
  exact q.System.set_semantics && exact q.System.bag_semantics

let refined_exactly = function
  | Ok (e : Refinement.epoch_report) -> e.Refinement.qualifier = Coverage.Exact
  | Error _ -> false

let all_practices (cfg : Hospital.config) sys =
  List.length (Generator.practices_covered cfg (Prima.policy_store (System.prima sys)))
  = List.length cfg.Hospital.informal

(* Coverage of the System's store over its trail, from scratch: the direct
   federation view converted and aligned without any System state. *)
let scratch_coverage sys ~bag =
  let prima = System.prima sys in
  Coverage.aligned ~bag (Prima.vocab prima) ~attrs:Vocabulary.Audit_attrs.pattern
    ~p_x:(Prima.policy_store prima)
    ~p_y:(Audit_mgmt.To_policy.policy_of_entries (Federation.consolidated (System.federation sys)))

let start_tracing tracing sys =
  Option.iter
    (fun (t : R.tracing) -> t.R.merged_to <- Federation.total_entries (System.federation sys))
    tracing

(* --- the paper's running example, through the System path --- *)

let paper_checks tally =
  let system entries =
    let sys =
      System.create ~vocab:(Workload.Scenario.vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
    in
    let site = Site.create ~name:"paper" () in
    Site.ingest_entries site entries;
    System.add_site sys site;
    sys
  in
  let ratio (s : Coverage.stats) = (s.Coverage.overlap, s.Coverage.denominator) in
  let figure3 = System.coverage_qualified (system (Workload.Scenario.figure3_entries ())) in
  R.check tally
    (ratio figure3.System.set_semantics.Coverage.stats = (3, 6) && qualified_exact figure3)
    "paper: Figure 3 set coverage is not 3/6";
  let table1 = system (Workload.Scenario.table1_entries ()) in
  let before = System.coverage_qualified table1 in
  R.check tally
    (ratio before.System.bag_semantics.Coverage.stats = (3, 10))
    "paper: Table 1 bag coverage is not 3/10";
  R.check tally
    (match System.refine table1 with
    | Ok e ->
      List.equal Rule.equal e.Refinement.accepted [ Workload.Scenario.expected_pattern () ]
      && ratio e.Refinement.coverage_after = (8, 10)
    | Error _ -> false)
    "paper: refine does not adopt exactly referral:registration:nurse and reach 8/10"

(* --- monitor: steady monitoring of a large accumulated trail --- *)

module Monitor : S = struct
  let name = "monitor"
  let nsites = 4
  let base = 12_000
  let cycles = 40
  let batch = 24 (* a multiple of [nsites], so batches deal like the base *)

  (* Refine on cycles 3, 8, ..., 38; the last cycle reads coverage. *)
  let refines_on c = c mod 5 = 2

  type inputs = {
    cfg : Hospital.config;
    base_trail : Hdb.Audit_schema.entry list list;
    batches : Hdb.Audit_schema.entry list list array;
  }

  let generate ~seed =
    let cfg = hospital ~seed ~accesses:(base + (cycles * batch)) in
    let trail = Array.of_list (Generator.entries (Generator.generate cfg)) in
    { cfg;
      base_trail = deal nsites (Array.sub trail 0 base);
      batches = Array.init cycles (fun c -> deal nsites (Array.sub trail (base + (c * batch)) batch));
    }

  let describe _ =
    Printf.sprintf
      "base trail %d entries over %d WAL-backed sites; per episode %d cycles of a %d-entry \
       batch, then coverage_qualified (refine every 5th cycle)"
      base nsites cycles batch

  (* The base preload plus its warm-up call are set-up, so the memo fills
     there; nothing else to warm. *)
  let warm_up _ = ()

  let episode ?tracing inputs s tally totals =
    let (sys, sites), setup =
      Trace.timed (fun () ->
          let sys = new_system inputs.cfg in
          let sites = add_sites sys nsites in
          List.iter2
            (fun site entries ->
              Site.ingest_entries site entries;
              Site.sync_wal site)
            sites inputs.base_trail;
          ignore (System.coverage_qualified sys);
          (sys, sites))
    in
    s.setup_s <- setup :: s.setup_s;
    start_tracing tracing sys;
    let readings = ref [] and epochs = ref [] and w = wall () in
    Array.iteri
      (fun c batches ->
        piece w (fun () ->
            record_ingest s ~entries:batch (R.ingest ?tracing sites batches);
            if refines_on c then begin
              let report, dt = R.refine ?tracing tally sys in
              s.refine <- dt :: s.refine;
              epochs := report :: !epochs
            end
            else begin
              let q, dt = R.coverage ?tracing tally sys in
              s.coverage <- dt :: s.coverage;
              readings := q :: !readings
            end);
        if c mod 10 = 9 then Calibration.sample ())
      inputs.batches;
    close_wall s w;
    List.iter (fun q -> R.check tally (qualified_exact q) "monitor: coverage reading not Exact") !readings;
    List.iter (fun r -> R.check tally (refined_exactly r) "monitor: refine not Ok and Exact") !epochs;
    R.check tally (all_practices inputs.cfg sys) "monitor: informal practices not all adopted";
    (match !readings with
    | last :: _ ->
      R.check tally
        (R.stats_equal last.System.set_semantics.Coverage.stats (scratch_coverage sys ~bag:false)
        && R.stats_equal last.System.bag_semantics.Coverage.stats (scratch_coverage sys ~bag:true))
        "monitor: final coverage differs from a from-scratch Coverage.aligned"
    | [] -> ());
    R.check tally
      (Federation.total_entries (System.federation sys) = base + (cycles * batch))
      "monitor: sites lost entries";
    add_sites_wal totals sites;
    add_audit_store totals sys
end

(* --- bulk: a cold full-trail report --- *)

module Bulk : S = struct
  let name = "bulk"
  let nsites = 8
  let entries = 100_000

  type inputs = {
    cfg : Hospital.config;
    trail : Hdb.Audit_schema.entry array;
    per_site : Hdb.Audit_schema.entry list list;
    mutable expected_patterns : Rule.t list option;
        (** Extract_patterns over Filter over the direct view, from the
            first refined System *)
  }

  let generate ~seed =
    let cfg = hospital ~seed ~accesses:entries in
    let trail = Array.of_list (Generator.entries (Generator.generate cfg)) in
    { cfg; trail; per_site = deal nsites trail; expected_patterns = None }

  let describe _ =
    Printf.sprintf
      "a %d-entry trail over %d WAL-backed sites ingested into a fresh System, which \
       answers one request; an episode is one System answering refine, then one answering \
       coverage_qualified"
      entries nsites

  let warm_up inputs =
    let prefix = Array.sub inputs.trail 0 2_000 in
    let sys = new_system inputs.cfg in
    let sites = add_sites sys nsites in
    List.iter2 Site.ingest_entries sites (deal nsites prefix);
    ignore (System.refine sys);
    ignore (System.coverage_qualified sys)

  let sorted rules = List.sort Rule.compare rules

  (* Extract_patterns.run over Filter.run of the direct view. *)
  let direct_patterns sys =
    let view = Federation.consolidated (System.federation sys) in
    Prima_core.Extract_patterns.run
      (Prima_core.Filter.run (Audit_mgmt.To_policy.policy_of_entries view))

  let one_system ?tracing inputs s tally totals w ~refine =
    let (sys, sites), setup =
      Trace.timed (fun () ->
          let sys = new_system inputs.cfg in
          (sys, add_sites sys nsites))
    in
    s.setup_s <- setup :: s.setup_s;
    start_tracing tracing sys;
    piece w (fun () -> record_ingest s ~entries (R.ingest ?tracing sites inputs.per_site));
    (if refine then begin
       let report, dt = piece w (fun () -> R.refine ?tracing tally sys) in
       s.refine <- dt :: s.refine;
       R.check tally (refined_exactly report) "bulk: refine not Ok and Exact";
       let expected =
         match inputs.expected_patterns with
         | Some p -> p
         | None ->
           let p = sorted (direct_patterns sys) in
           inputs.expected_patterns <- Some p;
           p
       in
       (match report with
       | Ok e ->
         R.check tally
           (List.equal Rule.equal (sorted e.Refinement.patterns) expected)
           "bulk: refine patterns differ from Extract_patterns over the direct view";
         R.check tally
           (List.for_all (Generator.oracle inputs.cfg) e.Refinement.accepted)
           "bulk: a pattern outside the oracle was accepted"
       | Error _ -> ());
       R.check tally (all_practices inputs.cfg sys) "bulk: informal practices not all adopted"
     end
     else begin
       let q, dt = piece w (fun () -> R.coverage ?tracing tally sys) in
       s.coverage <- dt :: s.coverage;
       R.check tally
         (qualified_exact q
         && q.System.bag_semantics.Coverage.stats.Coverage.denominator = entries
         && q.System.health.Audit_mgmt.Health.total = entries)
         "bulk: coverage not Exact over the whole trail"
     end);
    Calibration.sample ();
    add_sites_wal totals sites;
    add_audit_store totals sys

  let episode ?tracing inputs s tally totals =
    let w = wall () in
    one_system ?tracing inputs s tally totals w ~refine:true;
    Gc.full_major ();
    one_system ?tracing inputs s tally totals w ~refine:false;
    close_wall s w
end

(* --- clinic: Figure 4's loop on the clinical path --- *)

module Clinic : S = struct
  let name = "clinic"
  let patients = 2_000
  let opt_outs = 60
  let rounds = 2
  let per_round = 1_000

  type outcome =
    | Regular of int  (** rows returned *)
    | Glass of int
    | Denied
    | Unexpected of string

  type inputs = {
    cfg : Hospital.config;
    queries : R.query array;
    columns : (string * string) list;  (** (column, data category) *)
    rows : Relational.Value.t list list;
    consent : (string * string * string) list;  (** (patient, purpose, data) opt-outs *)
  }

  let column_of data = String.map (fun c -> if c = '-' then '_' else c) data
  let patient_id i = Printf.sprintf "p%05d" i

  let generate ~seed =
    let cfg = hospital ~seed ~accesses:(rounds * per_round) in
    let rng = Splitmix.create ~seed in
    let data_leaves =
      Vocabulary.Taxonomy.ground_values
        (Vocabulary.Vocab.taxonomy cfg.Hospital.vocab Vocabulary.Audit_attrs.data)
    in
    let columns = List.map (fun d -> (column_of d, d)) data_leaves in
    let queries =
      Array.of_list
        (List.map
           (fun (e : Hdb.Audit_schema.entry) ->
             let patient = patient_id (Splitmix.int rng patients) in
             { R.user = e.Hdb.Audit_schema.user;
               role = e.Hdb.Audit_schema.authorized;
               purpose = e.Hdb.Audit_schema.purpose;
               data = e.Hdb.Audit_schema.data;
               patient;
               sql =
                 Printf.sprintf "SELECT %s FROM records WHERE patient = '%s'"
                   (column_of e.Hdb.Audit_schema.data) patient;
               break_glass = e.Hdb.Audit_schema.status = Hdb.Audit_schema.Exception_based;
             })
           (Generator.entries (Generator.generate cfg)))
    in
    let rows =
      List.init patients (fun i ->
          Relational.Value.Str (patient_id i)
          :: List.map (fun (c, _) -> Relational.Value.Str (Printf.sprintf "%s-%d" c i)) columns)
    in
    (* Opt-outs of uses the clinicians actually make, so some queries get
       a consent exclusion. *)
    let consent =
      List.init opt_outs (fun _ ->
          let q = queries.(Splitmix.int rng (Array.length queries)) in
          (patient_id (Splitmix.int rng patients), q.R.purpose, q.R.data))
    in
    { cfg; queries; columns; rows; consent }

  let describe _ =
    Printf.sprintf
      "point SELECTs from generated accesses against a %d-patient table with %d opt-outs; \
       per episode %d rounds of %d queries, each round closed by sync_durable, refine and \
       coverage_qualified"
      patients opt_outs rounds per_round

  let setup inputs =
    let sys =
      new_system inputs.cfg
        ~storage:
          { System.audit_log = Durable.Log.create ~seed:1 ();
            quarantine_log = Durable.Log.create ~seed:2 ();
          }
    in
    let control = System.control sys in
    ignore
      (Hdb.Control_center.admin_exec control
         (Printf.sprintf "CREATE TABLE records (patient TEXT, %s)"
            (String.concat ", " (List.map (fun (c, _) -> c ^ " TEXT") inputs.columns))));
    let engine = Hdb.Control_center.engine control in
    List.iter (Relational.Engine.insert_row engine ~table:"records") inputs.rows;
    Hdb.Control_center.set_patient_column control ~table:"records" ~column:"patient";
    List.iter
      (fun (column, category) ->
        Hdb.Control_center.map_column control ~table:"records" ~column ~category)
      inputs.columns;
    List.iter
      (fun (patient, purpose, data) -> Hdb.Control_center.opt_out control ~patient ~purpose ~data)
      inputs.consent;
    sys

  let warm_up inputs =
    let sys = setup inputs in
    let tally = R.tally () in
    Array.iteri
      (fun i q -> if i < 200 then ignore (R.query tally (System.control sys) q))
      inputs.queries;
    ignore (System.refine sys);
    ignore (System.coverage_qualified sys)

  let summarize = function
    | Ok (o : Hdb.Enforcement.outcome) ->
      let rows = List.length o.Hdb.Enforcement.result.Relational.Executor.rows in
      if o.Hdb.Enforcement.break_glass then Glass rows else Regular rows
    | Error (Hdb.Enforcement.Denied _) -> Denied
    | Error e -> Unexpected (Hdb.Enforcement.error_to_string e)

  (* What the formal model says the clinician gets, independent of the
     enforcement code: the store's range decides permission, the recorded
     opt-outs decide whether the patient's row survives. *)
  let expected inputs ~range ~vocab (q : R.query) =
    let rule =
      Rule.of_assoc
        [ (Vocabulary.Audit_attrs.data, q.R.data);
          (Vocabulary.Audit_attrs.purpose, q.R.purpose);
          (Vocabulary.Audit_attrs.authorized, q.R.role);
        ]
    in
    if Prima_core.Range.covers vocab range rule then
      Regular (if List.mem (q.R.patient, q.R.purpose, q.R.data) inputs.consent then 0 else 1)
    else if q.R.break_glass then Glass 1
    else Denied

  let episode ?tracing inputs s tally totals =
    let sys, setup = Trace.timed (fun () -> setup inputs) in
    s.setup_s <- setup :: s.setup_s;
    start_tracing tracing sys;
    let control = System.control sys in
    let outcomes = Array.make (Array.length inputs.queries) (Unexpected "not run") in
    let stores = Array.make rounds (Prima.policy_store (System.prima sys)) in
    let closing = ref [] and w = wall () in
    for r = 0 to rounds - 1 do
      stores.(r) <- Prima.policy_store (System.prima sys);
      piece w (fun () ->
          for i = r * per_round to ((r + 1) * per_round) - 1 do
            let outcome, dt = R.query ?tracing tally control inputs.queries.(i) in
            s.enforce <- dt :: s.enforce;
            outcomes.(i) <- summarize outcome
          done;
          (match tracing with
          | None -> System.sync_durable sys
          | Some t -> Trace.span t.R.trace "durable.sync" (fun () -> System.sync_durable sys));
          let report, dt = R.refine ?tracing tally sys in
          let q, dt' = R.coverage ?tracing tally sys in
          (* Only the closing round's trail is the same size in every
             episode: its refine and coverage are the samples. *)
          if r = rounds - 1 then begin
            s.refine <- dt :: s.refine;
            s.coverage <- dt' :: s.coverage
          end;
          closing := (report, q) :: !closing);
      Calibration.sample ()
    done;
    close_wall s w;
    let vocab = inputs.cfg.Hospital.vocab in
    let btg = Array.make rounds 0 in
    for r = 0 to rounds - 1 do
      let range =
        Prima_core.Range.of_policy vocab
          (Policy.project stores.(r) ~attrs:Vocabulary.Audit_attrs.pattern)
      in
      for i = r * per_round to ((r + 1) * per_round) - 1 do
        (match outcomes.(i) with Glass _ -> btg.(r) <- btg.(r) + 1 | _ -> ());
        R.check tally
          (outcomes.(i) = expected inputs ~range ~vocab inputs.queries.(i))
          (match outcomes.(i) with
          | Unexpected why -> "clinic: unexpected query error: " ^ why
          | _ -> "clinic: query outcome differs from the policy store and consent")
      done
    done;
    List.iter
      (fun (report, q) ->
        R.check tally (refined_exactly report && qualified_exact q)
          "clinic: refine or coverage not Ok and Exact")
      !closing;
    let later = Array.fold_left ( + ) 0 btg - btg.(0) in
    R.check tally
      (later < btg.(0) * (rounds - 1))
      "clinic: break-the-glass share did not drop after the first refine";
    Option.iter
      (fun log ->
        add_wal totals log
          ~entries:(Hdb.Audit_store.length (Hdb.Control_center.audit_store control)))
      (Hdb.Audit_store.log (Hdb.Control_center.audit_store control));
    add_audit_store totals sys
end

let all : (module S) list = [ (module Monitor); (module Bulk); (module Clinic) ]
