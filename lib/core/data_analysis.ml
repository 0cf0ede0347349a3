(* Algorithm 5: dataAnalysis(P, A, f, c).

   Translates the analysis parameters into the SQL statement of the paper —

     SELECT A1,..,An FROM P's table
     GROUP BY A1,..,An
     HAVING COUNT( * ) >= f AND c

   — and executes it on the relational engine.  The paper writes
   "COUNT( * ) > f" in the pseudocode but "occurred at least f times" in the
   prose (and the Section 5 pattern occurs exactly f = 5 times), so the
   comparator defaults to [>=] and is configurable. *)

type comparator =
  | At_least (* COUNT( * ) >= f : matches the narrative and Section 5 *)
  | More_than (* COUNT( * ) > f  : matches the pseudocode literally *)

type config = {
  attributes : string list; (* A: subset of the audit schema *)
  min_frequency : int; (* f: system-defined threshold, default 5 *)
  comparator : comparator;
  condition : string option; (* c: extra HAVING conjunct, SQL text *)
}

(* The defaults of Algorithm 4: A = pattern attributes, f = 5,
   c = COUNT(DISTINCT user) > 1. *)
let default_config =
  { attributes = Vocabulary.Audit_attrs.pattern;
    min_frequency = 5;
    comparator = At_least;
    condition = Some (Printf.sprintf "COUNT(DISTINCT %s) > 1" Vocabulary.Audit_attrs.user);
  }

(* Materialise a policy of audit rules as a relational table; every column
   is TEXT.  The seven audit-schema columns always exist, NULL where a
   rule lacks the attribute, so the paper's statement finds its columns
   even when no rule carries one of them (e.g. hand-built rules without a
   user); any other attribute a rule carries gets a column after them. *)
let materialize engine ~table_name (p : Policy.t) =
  let attrs =
    List.fold_left
      (fun acc rule ->
        List.fold_left
          (fun acc (attr, _) -> if List.mem attr acc then acc else acc @ [ attr ])
          acc (Rule.to_assoc rule))
      Vocabulary.Audit_attrs.all (Policy.rules p)
  in
  let db = Relational.Engine.database engine in
  if Relational.Database.table_exists db table_name then
    Relational.Database.drop_table db table_name;
  let columns = List.map (fun a -> (a, Relational.Value.T_string)) attrs in
  let tbl = Relational.Engine.create_table engine ~name:table_name ~columns in
  List.iter
    (fun rule ->
      let assoc = Rule.to_assoc rule in
      let row =
        List.map
          (fun attr ->
            match List.assoc_opt attr assoc with
            | Some v -> Relational.Value.Str v
            | None -> Relational.Value.Null)
          attrs
      in
      Relational.Table.insert tbl (Relational.Row.of_list row))
    (Policy.rules p);
  attrs

(* Render the statement of Algorithm 5, line 2. *)
let statement ~table_name config =
  let attrs = String.concat ", " config.attributes in
  let op = match config.comparator with At_least -> ">=" | More_than -> ">" in
  let having =
    Printf.sprintf "COUNT(*) %s %d%s" op config.min_frequency
      (match config.condition with Some c -> " AND " ^ c | None -> "")
  in
  Printf.sprintf "SELECT %s FROM %s GROUP BY %s HAVING %s" attrs table_name attrs having

(* [run engine ~table_name config] executes the generated statement and
   returns each surviving group as a rule over [config.attributes]. *)
let run ?budget engine ~table_name config : Rule.t list =
  let sql = statement ~table_name config in
  let result = Relational.Engine.query ?budget engine sql in
  List.map
    (fun row ->
      Rule.make
        (List.mapi
           (fun i attr ->
             let value = Relational.Value.to_string (Relational.Row.get row i) in
             Rule_term.make ~attr ~value)
           config.attributes))
    result.Relational.Executor.rows

(* One-call variant: load the practice policy into a fresh engine and
   analyse it there. *)
let analyse ?(config = default_config) ?budget (practice : Policy.t) : Rule.t list =
  (* An empty practice forms no group, so there is no table to build
     (the chaos harness refines over windows whose only site was down). *)
  if Policy.cardinality practice = 0 then []
  else
  let engine = Relational.Engine.create () in
  let table_name = "practice" in
  let _ = materialize engine ~table_name practice in
  run ?budget engine ~table_name config

(* --- governed execution --- *)

type governed = {
  patterns : Rule.t list;
  degraded : bool;
  stats : Relational.Errors.budget_stats;
}

let exact patterns =
  { patterns; degraded = false; stats = { Relational.Errors.rows_out = 0; tuples = 0; ticks = 0 } }

(* Budgeted Algorithm 5 with graceful degradation: try the query under a
   strict budget; if a quota fires, retry the same limits in partial mode.
   The partial run computes the groups over a prefix of the practice table,
   so the returned pattern set is a *lower bound* on the real one —
   [degraded] tells the caller to qualify anything derived from it
   ([Coverage.Lower_bound] in the refinement loop). *)
let run_governed engine ~table_name ~limits config : governed =
  let budget = Relational.Budget.create limits in
  match run ~budget engine ~table_name config with
  | patterns ->
    { patterns; degraded = false; stats = Relational.Budget.stats budget }
  | exception Relational.Errors.Budget_exceeded _ ->
    let budget = Relational.Budget.create ~mode:Relational.Budget.Partial limits in
    let patterns = run ~budget engine ~table_name config in
    { patterns;
      degraded = Relational.Budget.truncated budget;
      stats = Relational.Budget.stats budget;
    }

let analyse_governed ?(config = default_config) ~limits (practice : Policy.t) :
    governed =
  if Policy.cardinality practice = 0 then exact []
  else
  let engine = Relational.Engine.create () in
  let table_name = "practice" in
  let _ = materialize engine ~table_name practice in
  run_governed engine ~table_name ~limits config
