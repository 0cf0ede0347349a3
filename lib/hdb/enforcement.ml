(* HDB Active Enforcement: the middleware of Figure 5.

   A user query arrives with a context (user, role, chosen purpose).  The
   enforcer parses it, maps the touched columns to data categories, consults
   the privacy rules and patient consent, and rewrites the query so that only
   policy- and consent-consistent data is returned:

   - cell-level limitation: projections of forbidden categories are replaced
     by NULL (keeping the output shape);
   - row-level limitation: a patient-exclusion predicate is injected for
     patients who opted out of the (purpose, category) uses the query makes;
   - predicate columns of forbidden categories deny the whole query (masking
     cannot fix information flow through WHERE).

   Denied queries may be re-issued with [~break_glass:true]; the original
   query then runs unmasked but every disclosed category is logged as an
   exception-based access (status 0) — the raw material of PRIMA refinement. *)

open Relational

let log_src = Logs.Src.create "prima.enforcement" ~doc:"HDB Active Enforcement decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type context = {
  user : string;
  role : string;
  purpose : string;
}

(* A computed exclusion, with what it was computed from: the table value,
   its row version and the consent store's record count. *)
type exclusion = {
  table : Table.t;
  version : int;
  choices : int;
  excluded : (string * Value.t) list;
}

type t = {
  engine : Engine.t;
  rules : Privacy_rules.t;
  consent : Consent.t;
  categories : Category_map.t;
  logger : Audit_logger.t;
  exclusions : (string * string * string * string list, exclusion) Hashtbl.t;
}

type outcome = {
  result : Executor.result_set;
  rewritten_sql : string;
  masked_columns : string list;
  excluded_patients : string list;
  break_glass : bool;
  disclosed_categories : string list;
}

type error =
  | Denied of string
  | Unsupported of string

let create ~engine ~rules ~consent ~categories ~logger =
  { engine; rules; consent; categories; logger; exclusions = Hashtbl.create 64 }

let exclusion_limit = 1 lsl 10 (* [exclusions] is reset wholesale at this size *)

let engine t = t.engine
let logger t = t.logger
let rules t = t.rules
let consent t = t.consent
let categories t = t.categories

(* Column references (qualifier, name) appearing anywhere in an
   expression. *)
let rec expr_columns (e : Sql_ast.expr) =
  match e with
  | Sql_ast.Col { qualifier; name } -> [ (qualifier, name) ]
  | Sql_ast.Lit _ | Sql_ast.Star -> []
  | Sql_ast.Unop (_, x) -> expr_columns x
  | Sql_ast.Binop (_, a, b) -> expr_columns a @ expr_columns b
  | Sql_ast.Agg { arg; _ } -> expr_columns arg
  | Sql_ast.Call (_, args) -> List.concat_map expr_columns args
  | Sql_ast.In_list { scrutinee; items; _ } ->
    expr_columns scrutinee @ List.concat_map expr_columns items
  | Sql_ast.In_select { scrutinee; _ } ->
    (* Subquery columns reference the subquery's own scope. *)
    expr_columns scrutinee
  | Sql_ast.Exists _ | Sql_ast.Scalar_select _ -> []
  | Sql_ast.Like { scrutinee; pattern; _ } -> expr_columns scrutinee @ expr_columns pattern
  | Sql_ast.Is_null { scrutinee; _ } -> expr_columns scrutinee
  | Sql_ast.Between { scrutinee; low; high; _ } ->
    expr_columns scrutinee @ expr_columns low @ expr_columns high

let dedupe xs = List.sort_uniq String.compare xs

exception Derived_in_scope

(* The base tables a FROM clause brings into scope, with their qualifiers
   and schemas.  Derived tables could smuggle clinical columns past the
   rewriter, so they are rejected under enforcement.
   @raise Derived_in_scope when the tree contains one. *)
type scope_entry = {
  table_name : string;
  qualifier : string;
  table_schema : Schema.t;
}

let rec scope_of t (ref : Sql_ast.table_ref) : scope_entry list =
  match ref with
  | Sql_ast.Table { name; alias } ->
    let table = Database.table (Engine.database t.engine) name in
    [ { table_name = Table.name table;
        qualifier = Name.fold (Option.value alias ~default:(Table.name table));
        table_schema = Table.schema table;
      } ]
  | Sql_ast.Derived _ -> raise Derived_in_scope
  | Sql_ast.Join { left; right; on; _ } ->
    ignore on;
    scope_of t left @ scope_of t right

(* Resolve a column reference to the table it reads from.  Unqualified
   names resolve when exactly one in-scope table has the column; other
   cases are left to the engine's own resolution errors. *)
let table_of_column scope (qualifier, name) =
  match qualifier with
  | Some q ->
    List.find_opt (fun entry -> Name.equal entry.qualifier q) scope
  | None -> begin
    match List.filter (fun entry -> Schema.mem entry.table_schema name) scope with
    | [ entry ] -> Some entry
    | _ -> None
  end

let category_of_ref t scope column_ref =
  match table_of_column scope column_ref with
  | None -> None
  | Some entry ->
    Option.map
      (fun category -> (entry, category))
      (Category_map.category_of t.categories ~table:entry.table_name ~column:(snd column_ref))

let permitted t ctx category =
  Privacy_rules.permits t.rules ~data:category ~purpose:ctx.purpose ~authorized:ctx.role

exception Untyped_patient_column of string

(* The patients a disclosure of [categories] from [table] must exclude, as
   the column values to put in NOT IN, in the order of their first row.  A
   consent id names the non-NULL value that renders as it
   ([Value.to_string]).  The patient index is built here on first use;
   [Table] keeps it current.  Under an opt-in store only patients with a
   recorded choice can be excluded, so those are probed through the index;
   under an opt-out store every patient is a candidate and the rows are
   scanned.
   @raise Untyped_patient_column when the column can hold no patient id. *)
let compute_exclusion t ctx tbl ~patient_column ~categories =
  let column = Schema.find_exn (Table.schema tbl) patient_column in
  let value_of_id =
    match Schema.ty_at (Table.schema tbl) column with
    | Value.T_string -> fun id -> Some (Value.Str id)
    | Value.T_int -> (
      fun id ->
        match int_of_string_opt id with
        | Some n when String.equal (string_of_int n) id -> Some (Value.Int n)
        | Some _ | None -> None)
    | (Value.T_float | Value.T_bool) as ty ->
      raise
        (Untyped_patient_column
           (Printf.sprintf "patient column %s.%s is %s; patient ids need TEXT or INTEGER"
              (Table.name tbl) patient_column (Value.ty_to_string ty)))
  in
  Table.create_index tbl ~column_name:patient_column;
  let candidates =
    match Consent.default t.consent with
    | Consent.Opt_in ->
      let index = Option.get (Table.index_on tbl ~column) in
      List.filter_map
        (fun id ->
          match Option.map (Index.lookup index) (value_of_id id) with
          | Some (first_row :: _) -> Some (first_row, id)
          | Some [] | None -> None)
        (Consent.recorded_patients t.consent)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    | Consent.Opt_out ->
      let seen = Hashtbl.create 256 in
      Table.fold
        (fun acc row ->
          match Row.get row column with
          | Value.Null -> acc
          | v ->
            let id = Value.to_string v in
            if Hashtbl.mem seen id then acc
            else begin
              Hashtbl.add seen id ();
              id :: acc
            end)
        [] tbl
      |> List.rev
  in
  (* Every candidate renders from a column value, so [value_of_id] maps it
     back to that value. *)
  Consent.opted_out_patients t.consent ~patients:candidates ~purpose:ctx.purpose ~categories
  |> List.map (fun id -> (id, Option.get (value_of_id id)))

(* [compute_exclusion], reused while the same table value holds the same
   rows and the consent store has recorded no choice since ([Consent.count]
   only grows).  [categories] arrive sorted and distinct. *)
let excluded_in_table t ctx ~table ~patient_column ~categories =
  let tbl = Database.table (Engine.database t.engine) table in
  let key = (table, patient_column, ctx.purpose, categories) in
  let version = Table.version tbl and choices = Consent.count t.consent in
  match Hashtbl.find_opt t.exclusions key with
  | Some e when e.table == tbl && e.version = version && e.choices = choices -> e.excluded
  | Some _ | None ->
    let excluded = compute_exclusion t ctx tbl ~patient_column ~categories in
    if Hashtbl.length t.exclusions >= exclusion_limit then Hashtbl.reset t.exclusions;
    Hashtbl.replace t.exclusions key { table = tbl; version; choices; excluded };
    excluded

let log_categories t ctx ~op ~status categories =
  let _ = Audit_logger.tick t.logger in
  List.iter
    (fun data ->
      Audit_logger.log t.logger ~op ~user:ctx.user ~data ~purpose:ctx.purpose
        ~authorized:ctx.role ~status)
    categories

(* Expand '*' projections against the full scope so masking can act per
   output column. *)
let expand_select_projections scope (projections : Sql_ast.projection list) =
  List.concat_map
    (fun (p : Sql_ast.projection) ->
      match p with
      | Sql_ast.All_columns ->
        List.concat_map
          (fun entry ->
            List.map
              (fun (c : Schema.column) ->
                Sql_ast.Proj
                  (Sql_ast.Col { qualifier = Some entry.qualifier; name = c.Schema.name },
                   Some c.Schema.name))
              (Schema.columns entry.table_schema))
          scope
      | Sql_ast.Proj _ -> [ p ])
    projections

(* The rewrite itself: returns the rewritten select, masked output columns,
   excluded patients and disclosed categories, or the denial reason.  Its
   side effects are building a patient index on first use and caching each
   exclusion it computes (see [excluded_in_table]).  Handles any join tree
   of base tables; unmapped tables in scope contribute nothing to
   enforcement. *)
let rewrite t ctx (select : Sql_ast.select) =
  match select.Sql_ast.from with
  | None -> Ok (select, [], [], [])
  | Some from_clause ->
    match scope_of t from_clause with
    | exception Derived_in_scope ->
      Error (Unsupported "derived tables are not supported under enforcement")
    | scope ->
    let any_mapped =
      List.exists
        (fun entry -> Category_map.is_mapped_table t.categories ~table:entry.table_name)
        scope
    in
    if not any_mapped then Ok (select, [], [], [])
    else begin
      let projections = expand_select_projections scope select.Sql_ast.projections in
      (* Predicate-side categories (WHERE, GROUP BY, HAVING, ORDER BY and
         join conditions) must be permitted outright. *)
      let rec on_conditions (ref : Sql_ast.table_ref) =
        match ref with
        | Sql_ast.Table _ | Sql_ast.Derived _ -> []
        | Sql_ast.Join { left; right; on; _ } ->
          Option.to_list on @ on_conditions left @ on_conditions right
      in
      let predicate_refs =
        List.concat_map expr_columns
          (Option.to_list select.Sql_ast.where
          @ select.Sql_ast.group_by
          @ Option.to_list select.Sql_ast.having
          @ List.map fst select.Sql_ast.order_by
          @ on_conditions from_clause)
      in
      let forbidden_predicate_categories =
        List.filter_map
          (fun column_ref ->
            match category_of_ref t scope column_ref with
            | Some (_, category) when not (permitted t ctx category) -> Some category
            | Some _ | None -> None)
          predicate_refs
        |> dedupe
      in
      if forbidden_predicate_categories <> [] then
        Error
          (Denied
             (Printf.sprintf "predicate uses forbidden categories: %s"
                (String.concat ", " forbidden_predicate_categories)))
      else begin
        (* Cell-level masking of projections; track disclosures per table
           for consent. *)
        let masked = ref [] in
        let disclosed = ref [] in (* (table_name, category) *)
        let masked_projections =
          List.map
            (fun (p : Sql_ast.projection) ->
              match p with
              | Sql_ast.All_columns -> p
              | Sql_ast.Proj (e, alias) ->
                let refs = expr_columns e in
                let categories = List.filter_map (category_of_ref t scope) refs in
                let bad =
                  List.filter (fun (_, c) -> not (permitted t ctx c)) categories
                in
                if bad = [] then begin
                  disclosed :=
                    List.map (fun (entry, c) -> (entry.table_name, c)) categories
                    @ !disclosed;
                  p
                end
                else begin
                  masked :=
                    List.map (fun (_, name) -> String.lowercase_ascii name) refs @ !masked;
                  let name =
                    match alias, e with
                    | Some a, _ -> Some a
                    | None, Sql_ast.Col { name; _ } -> Some name
                    | None, _ -> None
                  in
                  Sql_ast.Proj (Sql_ast.Lit Value.Null, name)
                end)
            projections
        in
        let disclosed_pairs = List.sort_uniq compare !disclosed in
        let disclosed_categories = dedupe (List.map snd disclosed_pairs) in
        if disclosed_categories = [] && !masked <> [] then
          Error (Denied "no requested category is permitted for this role and purpose")
        else begin
          (* Row-level consent exclusion, per mapped table with a patient
             column, over the categories disclosed from that table. *)
          let exclusion entry =
            match Category_map.patient_column t.categories ~table:entry.table_name with
            | None -> None
            | Some pc ->
              let table_categories =
                List.filter_map
                  (fun (tbl, c) -> if String.equal tbl entry.table_name then Some c else None)
                  disclosed_pairs
              in
              if table_categories = [] then None
              else begin
                match
                  excluded_in_table t ctx ~table:entry.table_name ~patient_column:pc
                    ~categories:table_categories
                with
                | [] -> None
                | excluded -> Some (entry, pc, excluded)
              end
          in
          match List.filter_map exclusion scope with
          | exception Untyped_patient_column reason -> Error (Unsupported reason)
          | exclusions ->
          let where =
            List.fold_left
              (fun where (entry, pc, excluded) ->
                let exclusion =
                  Sql_ast.In_list
                    { scrutinee =
                        Sql_ast.Col { qualifier = Some entry.qualifier; name = pc };
                      negated = true;
                      items = List.map (fun (_, value) -> Sql_ast.Lit value) excluded;
                    }
                in
                match where with
                | Some w -> Some (Sql_ast.and_ w exclusion)
                | None -> Some exclusion)
              select.Sql_ast.where exclusions
          in
          let rewritten =
            { select with Sql_ast.projections = masked_projections; where }
          in
          let excluded_patients =
            dedupe (List.concat_map (fun (_, _, excluded) -> List.map fst excluded) exclusions)
          in
          Ok (rewritten, dedupe !masked, excluded_patients, disclosed_categories)
        end
      end
    end

(* Categories the raw query would disclose, before any masking. *)
let requested_categories t (select : Sql_ast.select) =
  match select.Sql_ast.from with
  | None -> []
  | Some from_clause ->
    match scope_of t from_clause with
    | exception Derived_in_scope -> []
    | scope ->
    let projections = expand_select_projections scope select.Sql_ast.projections in
    List.concat_map
      (fun (p : Sql_ast.projection) ->
        match p with
        | Sql_ast.All_columns -> []
        | Sql_ast.Proj (e, _) ->
          List.filter_map
            (fun column_ref ->
              Option.map snd (category_of_ref t scope column_ref))
            (expr_columns e))
      projections
    |> dedupe

let run_query ?(break_glass = false) ?budget t ctx sql : (outcome, error) result =
  match Engine.parse sql with
  | Sql_ast.Select select -> begin
    match rewrite t ctx select with
    | Ok (rewritten, masked_columns, excluded_patients, disclosed) ->
      Log.debug (fun m ->
          m "permit %s/%s/%s: disclosed=[%s] masked=[%s] excluded=%d" ctx.user ctx.role
            ctx.purpose (String.concat "," disclosed)
            (String.concat "," masked_columns)
            (List.length excluded_patients));
      let result = Engine.query_select ?budget t.engine rewritten in
      if disclosed <> [] then
        log_categories t ctx ~op:Audit_schema.Allow ~status:Audit_schema.Regular disclosed;
      Ok
        { result;
          rewritten_sql = Sql_ast.select_to_sql rewritten;
          masked_columns;
          excluded_patients;
          break_glass = false;
          disclosed_categories = disclosed;
        }
    | Error (Denied reason) when break_glass ->
      (* Break The Glass: execute the original query, audit everything
         disclosed as exception-based. *)
      Log.info (fun m -> m "break-the-glass by %s/%s/%s (%s)" ctx.user ctx.role ctx.purpose reason);
      let disclosed = requested_categories t select in
      let result = Engine.query_select ?budget t.engine select in
      log_categories t ctx ~op:Audit_schema.Allow ~status:Audit_schema.Exception_based
        disclosed;
      Ok
        { result;
          rewritten_sql = Sql_ast.select_to_sql select;
          masked_columns = [];
          excluded_patients = [];
          break_glass = true;
          disclosed_categories = disclosed;
        }
    | Error (Denied reason) ->
      Log.info (fun m -> m "deny %s/%s/%s: %s" ctx.user ctx.role ctx.purpose reason);
      let requested = requested_categories t select in
      log_categories t ctx ~op:Audit_schema.Disallow ~status:Audit_schema.Regular requested;
      Error (Denied reason)
    | Error e -> Error e
  end
  | _ -> Error (Unsupported "enforcement applies to SELECT statements only")

let error_to_string = function
  | Denied reason -> "denied: " ^ reason
  | Unsupported reason -> "unsupported: " ^ reason
