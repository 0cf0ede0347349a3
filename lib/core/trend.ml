(* Coverage trends: the Figure 2 measurement computed from one audit trail,
   bucketed by time windows.  Where Refinement.run_epochs asks "how does
   coverage evolve as the store is refined", a trend asks the dual question
   a privacy officer monitors continuously: "against the store of today,
   how covered was each period of the log?"  A falling trend is the early
   signal that practice has drifted away from policy again. *)

type point = {
  window_start : int; (* inclusive *)
  window_end : int; (* inclusive *)
  entries : int;
  stats : Coverage.stats;
}

let time_of_rule rule =
  Option.bind (Rule.find_attr rule Vocabulary.Audit_attrs.time) int_of_string_opt

(* [compute vocab ~p_ps ~p_al ~window ()] buckets the audit rules by
   timestamp into consecutive windows of [window] ticks from the earliest
   one and reports bag coverage for each window that holds a rule: an
   empty window would read 0/0 = 100% and fake a drift.  Buckets are keyed
   by window index, so memory follows the rules, not the timestamp spread.
   Rules without a readable timestamp are ignored.
   @raise Invalid_argument when [window <= 0]. *)
let compute ?(attrs = Vocabulary.Audit_attrs.pattern) vocab ~p_ps ~p_al ~window () :
    point list =
  if window <= 0 then invalid_arg "Trend.compute: window must be positive";
  let timed =
    List.filter_map
      (fun rule -> Option.map (fun t -> (t, rule)) (time_of_rule rule))
      (Policy.rules p_al)
  in
  let min_time = List.fold_left (fun acc (t, _) -> min acc t) max_int timed in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (t, rule) ->
      let b = (t - min_time) / window in
      Hashtbl.replace buckets b (rule :: Option.value (Hashtbl.find_opt buckets b) ~default:[]))
    timed;
  Hashtbl.fold (fun b rules acc -> (b, rules) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (b, rules) ->
         let rules = List.rev rules in
         let batch = Policy.make ~source:Policy.Audit_log rules in
         { window_start = min_time + (b * window);
           window_end = min_time + ((b + 1) * window) - 1;
           entries = List.length rules;
           stats = Coverage.aligned ~bag:true vocab ~attrs ~p_x:p_ps ~p_y:batch;
         })

(* Series form for Report.pp_series. *)
let to_series points =
  List.map
    (fun p ->
      ( Printf.sprintf "t%d-%d" p.window_start p.window_end,
        p.stats.Coverage.coverage ))
    points

(* Simple drift detector: true when the last window's coverage sits more
   than [tolerance] below the best window seen — practice has moved away
   from the store again and a refinement run is due. *)
let drifting ?(tolerance = 0.1) points =
  match List.rev points with
  | [] -> false
  | last :: _ ->
    let best =
      List.fold_left (fun acc p -> Float.max acc p.stats.Coverage.coverage) 0. points
    in
    best -. last.stats.Coverage.coverage > tolerance

let pp ppf points = Report.pp_series ppf (to_series points)
