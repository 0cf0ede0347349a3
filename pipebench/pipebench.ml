(* The PRIMA pipeline benchmark: one workload, one seed, one run.

     pipebench --workload monitor|bulk|clinic --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload's episode for S seconds and prints the
   end-to-end metrics; --trace 1 runs one untraced and one traced episode
   (fixed work, so its counts repeat exactly for a seed) and prints the
   per-layer metrics.  The last line of standard output is the result as
   one JSON object; the exit code is 0 only when every output check held. *)

module W = Workloads

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : string;  (** what the value was computed from *)
}

let metric name unit value samples = { name; unit; value; samples }

(* --- end-to-end metrics, from the untraced run --- *)

let median_metric name unit xs =
  metric name unit (Stats.median xs)
    (Printf.sprintf "n=%d, spread %.3f" (List.length xs) (Stats.quartile_spread xs))

(* A metric the run could not measure: printed by name, never in the result. *)
let unmeasured name unit why = metric name unit nan why

(* A percentile is reported only when >= 10 samples lie beyond it. *)
let percentile_metric name unit xs q =
  let value, beyond = Stats.percentile xs q in
  if xs = [] then unmeasured name unit "not exercised by this workload"
  else if beyond >= Stats.min_beyond then
    metric name unit value (Printf.sprintf "n=%d, %d beyond" (List.length xs) beyond)
  else
    unmeasured name unit
      (Printf.sprintf "n=%d: fewer than %d samples beyond" (List.length xs) Stats.min_beyond)

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* The metrics BENCHMARK.json gates: measured on every workload, and steady
   across seeds (see NOTES.md). *)
let gated = [ "setup_s"; "wall_s"; "heap_peak_mb" ]

(* [seconds] reads a timing: as measured, or scaled to host speed 1.0. *)
let end_to_end (s : W.samples) ~(seconds : Trace.timing -> float) ~top_heap_words
    (tally : Requests.tally) =
  let secs = List.map seconds and ms = List.map (fun t -> 1000. *. seconds t) in
  let median name unit xs =
    if xs = [] then unmeasured name unit "not exercised by this workload"
    else median_metric name unit xs
  in
  [ median "setup_s" "s" (secs s.W.setup_s);
    median "wall_s" "s" (secs s.W.wall_s);
    (if s.W.ingested = 0 then unmeasured "ingest_eps" "entries/s" "not exercised by this workload"
     else
       metric "ingest_eps" "entries/s"
         (float_of_int s.W.ingested /. List.fold_left ( +. ) 0. (secs s.W.ingest))
         (Printf.sprintf "%d entries in %d batches" s.W.ingested (List.length s.W.ingest)));
    median "coverage_ms.p50" "ms" (ms s.W.coverage);
    percentile_metric "coverage_ms.p90" "ms" (ms s.W.coverage) 0.9;
    median "refine_ms.p50" "ms" (ms s.W.refine);
    median "enforce_ms.p50" "ms" (ms s.W.enforce);
    percentile_metric "enforce_ms.p99" "ms" (ms s.W.enforce) 0.99;
    metric "failed_ratio" "failed/attempted"
      (float_of_int tally.Requests.failed /. float_of_int (max 1 tally.Requests.attempted))
      (Printf.sprintf "%d/%d" tally.Requests.failed tally.Requests.attempted);
    metric "heap_peak_mb" "MB" (heap_mb top_heap_words)
      "Gc.top_heap_words after the first two episodes";
  ]

(* --- per-layer metrics, from the traced run --- *)

let per_layer trace (totals : W.durable_totals) ~gc_major ~gc_alloc_words ~overhead_pct =
  let spans = Trace.spans trace in
  let self = Trace.self_times trace in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) -> Hashtbl.replace by_name s.Trace.name (s :: Option.value (Hashtbl.find_opt by_name s.Trace.name) ~default:[]))
    spans;
  let named n = Option.value (Hashtbl.find_opt by_name n) ~default:[] in
  let calls n = Printf.sprintf "%d calls" (List.length (named n)) in
  let median xs = if xs = [] then 0. else Stats.median xs in
  let self_ms n = metric (n ^ "_ms") "ms" (median (List.map (fun s -> 1000. *. self s) (named n))) (calls n) in
  let count ?(unit = "count") name n key =
    metric name unit (median (List.filter_map (fun s -> List.assoc_opt key s.Trace.counts) (named n))) (calls n)
  in
  let alloc_mw name n =
    metric name "Mw" (median (List.map (fun s -> s.Trace.alloc_words /. 1e6) (named n))) (calls n)
  in
  (* The named stages' total within each request, median over the requests
     that ran them. *)
  let per_request name unit stages value =
    let totals = Hashtbl.create 64 in
    List.iter
      (fun n ->
        List.iter
          (fun (s : Trace.span) ->
            Hashtbl.replace totals s.Trace.request
              (value s +. Option.value (Hashtbl.find_opt totals s.Trace.request) ~default:0.))
          (named n))
      stages;
    metric name unit
      (median (Hashtbl.fold (fun _ v acc -> v :: acc) totals []))
      (Printf.sprintf "%d requests" (Hashtbl.length totals))
  in
  let words_mw (s : Trace.span) = s.Trace.alloc_words /. 1e6 in
  (* The black-box call minus the stages replayed beside it. *)
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 then
        Hashtbl.replace children s.Trace.parent
          (Trace.duration s +. Option.value (Hashtbl.find_opt children s.Trace.parent) ~default:0.))
    spans;
  let residual_ms name black_box =
    metric name "ms"
      (median
         (List.map
            (fun (bb : Trace.span) ->
              let replayed = Hashtbl.find children bb.Trace.parent -. Trace.duration bb in
              1000. *. (Trace.duration bb -. replayed))
            (named black_box)))
      (calls black_box)
  in
  let per_entry name bytes entries =
    metric name "B/entry"
      (if entries = 0 then 0. else float_of_int bytes /. float_of_int entries)
      (Printf.sprintf "%d bytes / %d entries" bytes entries)
  in
  [ self_ms "site.ingest";
    alloc_mw "site.alloc_mw" "site.ingest";
    self_ms "durable.sync";
    metric "durable.syncs" "count" (float_of_int totals.W.syncs) "WAL device syncs";
    per_entry "durable.bytes_per_entry" totals.W.wal_bytes totals.W.wal_entries;
    self_ms "federation.consolidate";
    count "federation.entries_per_call" "federation.consolidate" "entries";
    count ~unit:"ratio" "federation.reread_ratio" "federation.consolidate" "reread_ratio";
    metric "federation.retries" "count"
      (List.fold_left
         (fun acc s -> acc +. Option.value (List.assoc_opt "retries" s.Trace.counts) ~default:0.)
         0. (named "federation.consolidate"))
      (calls "federation.consolidate");
    alloc_mw "federation.alloc_mw" "federation.consolidate";
    self_ms "to_policy.convert";
    alloc_mw "to_policy.alloc_mw" "to_policy.convert";
    self_ms "prima.ingest";
    { (self_ms "filter") with name = "filter.ms" };
    count "filter.practice_rows" "filter" "practice_rows";
    self_ms "data_analysis.materialize";
    self_ms "data_analysis.query";
    count "data_analysis.patterns" "data_analysis.query" "patterns";
    count ~unit:"ratio" "data_analysis.tuples_per_pattern" "data_analysis.query" "tuples_per_pattern";
    per_request "data_analysis.alloc_mw" "Mw" [ "data_analysis.materialize"; "data_analysis.query" ] words_mw;
    { (self_ms "prune") with name = "prune.ms" };
    count ~unit:"ratio" "prune.useful_ratio" "prune" "useful_ratio";
    (* A request projects the trail and the (small) store; their sum is
       what moves. *)
    per_request "coverage.project_ms" "ms" [ "coverage.project" ] (fun s -> 1000. *. self s);
    self_ms "coverage.set";
    self_ms "coverage.bag";
    per_request "coverage.alloc_mw" "Mw" [ "coverage.project"; "coverage.set"; "coverage.bag" ] words_mw;
    self_ms "relational.parse";
    self_ms "enforcement.rewrite";
    self_ms "relational.exec";
    count ~unit:"ratio" "relational.tuples_per_row" "relational.exec" "tuples_per_row";
    residual_ms "enforcement.log_residual_ms" "system.query";
    per_entry "audit_store.bytes_per_entry" totals.W.audit_bytes totals.W.audit_entries;
    residual_ms "system.refine_residual_ms" "system.refine";
    residual_ms "system.coverage_residual_ms" "system.coverage_qualified";
    metric "gc.major_collections" "count" gc_major "traced episode";
    metric "gc.alloc_mw" "Mw" (gc_alloc_words /. 1e6) "traced episode";
    metric "trace.overhead_pct" "%" overhead_pct "traced vs untraced episode wall time";
  ]

(* Each stage's self time as a share of the black-box calls of the
   requests it was replayed under: where a request's time goes. *)
let shares trace =
  let spans = Trace.spans trace in
  let self = Trace.self_times trace in
  let kind = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> if s.Trace.parent < 0 then Hashtbl.replace kind s.Trace.id s.Trace.name) spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      match Hashtbl.find_opt kind s.Trace.parent with
      | Some k ->
        let key = (k, s.Trace.name) in
        Hashtbl.replace rows key (self s +. Option.value (Hashtbl.find_opt rows key) ~default:0.)
      | None -> ())
    spans;
  let black_box = function
    | "coverage" -> Some "system.coverage_qualified"
    | "refine" -> Some "system.refine"
    | "query" -> Some "system.query"
    | _ -> None
  in
  Hashtbl.fold (fun (k, stage) total acc -> (k, stage, total) :: acc) rows []
  |> List.filter_map (fun (k, stage, total) ->
         match black_box k with
         | Some bb when not (String.equal stage bb) ->
           Option.map (fun bb_total -> (k, stage, total /. bb_total)) (Hashtbl.find_opt rows (k, bb))
         | _ -> None)
  |> List.sort compare

(* --- output --- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_report title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      if Float.is_nan m.value then Printf.printf "  %-34s %16s %-16s %s\n" m.name "-" m.unit m.samples
      else Printf.printf "  %-34s %16.6f %-16s %s\n" m.name m.value m.unit m.samples)
    metrics

let print_result (tally : Requests.tally) metrics =
  List.iter (fun miss -> Printf.printf "FAILED CHECK: %s\n" miss) (List.rev tally.Requests.misses);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.Requests.failed = 0) tally.Requests.attempted tally.Requests.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
          metrics))

type episode =
  ?tracing:Requests.tracing -> W.samples -> Requests.tally -> W.durable_totals -> unit

(* Repeat the episode until [seconds] have passed (at least twice).  Every
   timing is scaled by the host slowness read before, during and after the
   episode it belongs to. *)
let untraced (episode : episode) tally ~seconds =
  let s = W.samples () and totals = W.durable_totals () in
  let deadline = Int64.add (Trace.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let windows = ref [] and top_heap_words = ref 0 in
  Calibration.sample ();
  while List.length !windows < 2 || Trace.now_ns () < deadline do
    let started = Trace.now_ns () in
    episode s tally totals;
    windows := (started, Trace.now_ns ()) :: !windows;
    (* The peak over the work every run does, however many episodes the
       host's speed allows it. *)
    if List.length !windows = 2 then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    Gc.full_major ();
    Calibration.sample ()
  done;
  let readings = Calibration.readings () in
  let slowness =
    List.map
      (fun (started, ended) -> (started, Calibration.slowness_between readings ~started ~ended))
      !windows
  in
  let at_nominal_speed (t : Trace.timing) =
    (* the episode it belongs to: the latest one started before it *)
    let _, slow = List.find (fun (started, _) -> Int64.compare started t.Trace.started <= 0) slowness in
    t.Trace.seconds /. slow
  in
  let episodes = List.length !windows in
  let top_heap_words = !top_heap_words in
  let metrics = end_to_end s ~seconds:at_nominal_speed ~top_heap_words tally in
  let raw = end_to_end s ~seconds:(fun t -> t.Trace.seconds) ~top_heap_words tally in
  let slowness = List.map snd slowness in
  print_report
    (Printf.sprintf
       "end-to-end over %d episodes, times scaled to host speed 1.0 (episode slowness median \
        %.3f, range %.3f-%.3f); a percentile only with >= %d samples beyond it:"
       episodes (Stats.median slowness)
       (List.fold_left Float.min infinity slowness)
       (List.fold_left Float.max 0. slowness)
       Stats.min_beyond)
    (List.map2
       (fun m r ->
         if Float.is_nan m.value || r.value = m.value then m
         else { m with samples = Printf.sprintf "%s; raw %.6g" m.samples r.value })
       metrics raw);
  print_result tally (List.filter (fun m -> List.mem m.name gated) metrics)

let traced (episode : episode) tally ~spans_path =
  let plain = W.samples () in
  episode plain tally (W.durable_totals ());
  Gc.full_major ();
  let trace = Trace.create () in
  let traced_samples = W.samples () and totals = W.durable_totals () in
  let gc0 = Gc.quick_stat () and words0 = Trace.allocated_words () in
  episode ~tracing:{ Requests.trace; merged_to = 0 } traced_samples tally totals;
  let gc1 = Gc.quick_stat () and words1 = Trace.allocated_words () in
  let wall (s : W.samples) = Stats.median (List.map (fun t -> t.Trace.seconds) s.W.wall_s) in
  let overhead_pct = 100. *. ((wall traced_samples /. wall plain) -. 1.) in
  let metrics =
    per_layer trace totals
      ~gc_major:(float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
      ~gc_alloc_words:(words1 -. words0) ~overhead_pct
  in
  Trace.write trace ~path:spans_path;
  Printf.printf "spans written to %s\n" spans_path;
  Printf.printf "stage self time as a share of the black-box call it was replayed beside:\n";
  List.iter
    (fun (k, stage, share) -> Printf.printf "  %-10s %-28s %6.1f%%\n" k stage (100. *. share))
    (shares trace);
  print_report "per-layer (median per call of each layer's public function):" metrics;
  print_result tally metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage = "pipebench --workload monitor|bulk|clinic --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " monitor, bulk or clinic");
      ("--seed", Arg.Set_int seed, " input-generation seed");
      ("--seconds", Arg.Set_float seconds, " how long the untraced run measures");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  match List.find_opt (fun (module Wl : W.S) -> String.equal Wl.name !workload) W.all with
  | None ->
    prerr_endline usage;
    exit 2
  | Some (module Wl) ->
    Printf.printf "pipebench workload=%s seed=%d trace=%d seconds=%g\n%!" Wl.name !seed !trace
      !seconds;
    let inputs = Wl.generate ~seed:!seed in
    Printf.printf "%s\n%!" (Wl.describe inputs);
    Wl.warm_up inputs;
    let episode ?tracing = Wl.episode ?tracing inputs in
    let tally = Requests.tally () in
    W.paper_checks tally;
    if !trace = 1 then begin
        let dir = Filename.concat "pipebench" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        traced episode tally
          ~spans_path:(Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" Wl.name !seed))
      end
    else untraced episode tally ~seconds:!seconds;
    exit (if tally.Requests.failed = 0 then 0 else 1)
