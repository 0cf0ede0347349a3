(* Statement execution.

   SELECT pipeline: FROM (scans and nested-loop joins) → WHERE →
   grouping/aggregation → HAVING → projection (with sort keys) → DISTINCT →
   ORDER BY → OFFSET/LIMIT.  Rows are materialised lists; the audit-analysis
   workloads PRIMA runs are small enough that pipelining buys nothing over
   clarity here.

   Every operator charges the per-query [Budget.t] at its boundary: scans
   and join outputs as materialised tuples, filters/projections/sort entry
   as work ticks, aggregation-group and DISTINCT-set growth as tuples, and
   the top-level result against the row quota.  In strict mode a fired
   quota raises out of here; in partial mode the [Stop_scan] exception
   breaks the producing loop so the query answers over a prefix of the
   input (the caller reads [Budget.truncated]). *)

type result_set = {
  schema : Schema.t;
  rows : Row.t list;
}

type outcome =
  | Rows of result_set
  | Affected of int
  | Table_created of string
  | Table_dropped of string

(* Raised only in Partial budget mode, to stop a producing loop at the
   point of exhaustion; never escapes this module. *)
exception Stop_scan

module Row_tbl = Hashtbl.Make (struct
  type t = Row.t

  let equal = Row.equal
  let hash = Row.hash
end)

(* Collect the distinct aggregate expressions appearing anywhere in the
   query's output-side expressions. *)
let collect_aggs exprs =
  let acc = ref [] in
  let add agg = if not (List.exists (Sql_ast.equal_expr agg) !acc) then acc := agg :: !acc in
  let rec walk (e : Sql_ast.expr) =
    match e with
    | Sql_ast.Agg _ -> add e
    | Sql_ast.Lit _ | Sql_ast.Col _ | Sql_ast.Star -> ()
    | Sql_ast.Unop (_, x) -> walk x
    | Sql_ast.Binop (_, a, b) -> walk a; walk b
    | Sql_ast.Call (_, args) -> List.iter walk args
    | Sql_ast.In_list { scrutinee; items; _ } -> walk scrutinee; List.iter walk items
    | Sql_ast.In_select { scrutinee; _ } -> walk scrutinee
    | Sql_ast.Exists _ | Sql_ast.Scalar_select _ -> ()
    | Sql_ast.Like { scrutinee; pattern; _ } -> walk scrutinee; walk pattern
    | Sql_ast.Is_null { scrutinee; _ } -> walk scrutinee
    | Sql_ast.Between { scrutinee; low; high; _ } -> walk scrutinee; walk low; walk high
  in
  List.iter walk exprs;
  List.rev !acc

let projection_name i (p : Sql_ast.projection) =
  match p with
  | Sql_ast.All_columns -> Errors.internal "projection_name on *"
  | Sql_ast.Proj (_, Some alias) -> Name.fold alias
  | Sql_ast.Proj (Sql_ast.Col { name; _ }, None) -> Name.fold name
  | Sql_ast.Proj (e, None) ->
    let text = String.lowercase_ascii (Sql_ast.expr_to_sql e) in
    if String.length text <= 40 then text else Printf.sprintf "col%d" (i + 1)

(* Expand '*' against the input schema and fix output names. *)
let expand_projections input_schema (projections : Sql_ast.projection list) =
  List.concat
    (List.mapi
       (fun i (p : Sql_ast.projection) ->
         match p with
         | Sql_ast.All_columns ->
           List.map
             (fun (c : Schema.column) ->
               ( Sql_ast.Col { qualifier = c.Schema.qualifier; name = c.Schema.name },
                 c.Schema.name ))
             (Schema.columns input_schema)
         | Sql_ast.Proj (e, _) -> [ (e, projection_name i p) ])
       projections)

type sort_key =
  | By_output of int
  | By_expr of Expr.compiled

(* OFFSET/LIMIT stop walking the row list as soon as they can: LIMIT k on a
   large result touches only the first offset+k rows. *)
let rec drop n rows =
  if n <= 0 then rows
  else
    match rows with
    | [] -> []
    | _ :: rest -> drop (n - 1) rest

let take n rows =
  let rec go n acc rows =
    if n <= 0 then List.rev acc
    else
      match rows with
      | [] -> List.rev acc
      | row :: rest -> go (n - 1) (row :: acc) rest
  in
  if n <= 0 then [] else go n [] rows

(* Filter charging one work tick per input row; stops early (Partial) when
   the budget says so. *)
let governed_filter budget pred rows =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
      if not (Budget.step budget) then List.rev acc
      else go (if pred r then r :: acc else acc) rest
  in
  go [] rows

(* Map charging one work tick per input row. *)
let governed_map budget f rows =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
      if not (Budget.step budget) then List.rev acc else go (f r :: acc) rest
  in
  go [] rows

(* Predicate pushdown for single-table scans: an equality conjunct
   [col = literal] over an indexed column turns the scan into an index
   probe; the remaining conjuncts stay as the residual filter.  The probe
   key is coerced to the column type first — an unsatisfiable comparison
   (wrong type, fractional value on an INTEGER column, NULL) yields no
   rows, exactly as the filter would. *)
let rec split_conjuncts (e : Sql_ast.expr) =
  match e with
  | Sql_ast.Binop (Sql_ast.And, a, b) -> split_conjuncts a @ split_conjuncts b
  | _ -> [ e ]

let conj_opt = function
  | [] -> None
  | e :: es -> Some (List.fold_left (fun acc x -> Sql_ast.Binop (Sql_ast.And, acc, x)) e es)

let indexed_scan budget table ~qualifier (where : Sql_ast.expr option) =
  let schema = Schema.with_qualifier (Table.schema table) qualifier in
  let fallback () = (schema, Budget.admit_list budget (Table.to_list table), where) in
  match where with
  | None -> fallback ()
  | Some w when Sql_ast.contains_agg w -> fallback ()
  | Some w ->
    let conjuncts = split_conjuncts w in
    let try_conjunct (e : Sql_ast.expr) =
      let probe col_ref v =
        match col_ref with
        | Sql_ast.Col { qualifier = q; name } -> begin
          match Schema.find schema ?qualifier:q name with
          | Ok i -> Option.map (fun idx -> (i, idx, v)) (Table.index_on table ~column:i)
          | Error _ -> None
        end
        | _ -> None
      in
      match e with
      | Sql_ast.Binop (Sql_ast.Eq, c, Sql_ast.Lit v) -> probe c v
      | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Lit v, c) -> probe c v
      | _ -> None
    in
    let rec find_probe before = function
      | [] -> None
      | e :: rest -> begin
        match try_conjunct e with
        | Some probe -> Some (probe, List.rev_append before rest)
        | None -> find_probe (e :: before) rest
      end
    in
    (match find_probe [] conjuncts with
    | None -> fallback ()
    | Some ((column, index, key), residual) ->
      if Value.is_null key then (schema, [], conj_opt residual)
      else begin
        match Value.coerce (Schema.ty_at schema column) key with
        | None -> (schema, [], conj_opt residual)
        | Some key ->
          let rows =
            Budget.admit_list budget (List.map (Table.get table) (Index.lookup index key))
          in
          (schema, rows, conj_opt residual)
      end)

(* Uncorrelated IN (SELECT ...) subqueries are evaluated eagerly and
   replaced by literal lists before compilation; the subquery's first
   column provides the membership set. *)
let rec resolve_subqueries budget db (e : Sql_ast.expr) : Sql_ast.expr =
  let go = resolve_subqueries budget db in
  match e with
  | Sql_ast.Lit _ | Sql_ast.Col _ | Sql_ast.Star -> e
  | Sql_ast.Unop (op, x) -> Sql_ast.Unop (op, go x)
  | Sql_ast.Binop (op, a, b) -> Sql_ast.Binop (op, go a, go b)
  | Sql_ast.Agg { fn; distinct; arg } -> Sql_ast.Agg { fn; distinct; arg = go arg }
  | Sql_ast.Call (f, args) -> Sql_ast.Call (f, List.map go args)
  | Sql_ast.In_list { scrutinee; negated; items } ->
    Sql_ast.In_list { scrutinee = go scrutinee; negated; items = List.map go items }
  | Sql_ast.In_select { scrutinee; negated; select } ->
    let sub = exec_select budget db select in
    if Schema.arity sub.schema <> 1 then
      Errors.fail Errors.Plan "IN subquery must return exactly one column";
    let items = List.map (fun row -> Sql_ast.Lit (Row.get row 0)) sub.rows in
    Sql_ast.In_list { scrutinee = go scrutinee; negated; items }
  | Sql_ast.Exists select ->
    let sub = exec_select budget db select in
    Sql_ast.Lit (Value.Bool (sub.rows <> []))
  | Sql_ast.Scalar_select select ->
    let sub = exec_select budget db select in
    if Schema.arity sub.schema <> 1 then
      Errors.fail Errors.Plan "scalar subquery must return exactly one column";
    (match sub.rows with
    | [] -> Sql_ast.Lit Value.Null
    | [ row ] -> Sql_ast.Lit (Row.get row 0)
    | _ :: _ :: _ -> Errors.fail Errors.Execute "scalar subquery returned more than one row")
  | Sql_ast.Like { scrutinee; negated; pattern } ->
    Sql_ast.Like { scrutinee = go scrutinee; negated; pattern = go pattern }
  | Sql_ast.Is_null { scrutinee; negated } -> Sql_ast.Is_null { scrutinee = go scrutinee; negated }
  | Sql_ast.Between { scrutinee; negated; low; high } ->
    Sql_ast.Between { scrutinee = go scrutinee; negated; low = go low; high = go high }

and eval_from budget db (from_ref : Sql_ast.table_ref) : Schema.t * Row.t list =
  match from_ref with
  | Sql_ast.Table { name; alias } ->
    let table = Database.table db name in
    let qualifier = Option.value alias ~default:(Table.name table) in
    ( Schema.with_qualifier (Table.schema table) qualifier,
      Budget.admit_list budget (Table.to_list table) )
  | Sql_ast.Derived { select; alias } ->
    (* A derived table: materialise the subquery and bring its columns into
       scope under the alias. *)
    let sub = exec_select budget db select in
    ( Schema.with_qualifier sub.schema (String.lowercase_ascii alias),
      Budget.admit_list budget sub.rows )
  | Sql_ast.Join { left; right; kind; on } ->
    let left_schema, left_rows = eval_from budget db left in
    let right_schema, right_rows = eval_from budget db right in
    let schema = Schema.concat left_schema right_schema in
    let on_pred =
      match on with
      | Some e ->
        let c = Expr.compile (Expr.scalar_ctx schema) e in
        fun row -> Expr.is_true (c row [||])
      | None -> fun _ -> true
    in
    (* Nested loops, a tick per pair considered and a tuple per row
       produced; [Stop_scan] truncates the output in partial mode. *)
    let acc = ref [] in
    (try
       match kind with
       | Sql_ast.Inner | Sql_ast.Cross ->
         List.iter
           (fun lrow ->
             List.iter
               (fun rrow ->
                 if not (Budget.step budget) then raise_notrace Stop_scan;
                 let row = Row.concat lrow rrow in
                 if on_pred row then begin
                   if not (Budget.admit budget) then raise_notrace Stop_scan;
                   acc := row :: !acc
                 end)
               right_rows)
           left_rows
       | Sql_ast.Left ->
         let null_right = Array.make (Schema.arity right_schema) Value.Null in
         List.iter
           (fun lrow ->
             let matched = ref false in
             List.iter
               (fun rrow ->
                 if not (Budget.step budget) then raise_notrace Stop_scan;
                 let row = Row.concat lrow rrow in
                 if on_pred row then begin
                   if not (Budget.admit budget) then raise_notrace Stop_scan;
                   matched := true;
                   acc := row :: !acc
                 end)
               right_rows;
             if not !matched then begin
               if not (Budget.admit budget) then raise_notrace Stop_scan;
               acc := Row.concat lrow null_right :: !acc
             end)
           left_rows
     with Stop_scan -> ());
    (schema, List.rev !acc)

and exec_select budget db (q : Sql_ast.select) : result_set =
  let resolve = resolve_subqueries budget db in
  let q =
    { q with
      Sql_ast.projections =
        List.map
          (function
            | Sql_ast.All_columns -> Sql_ast.All_columns
            | Sql_ast.Proj (e, alias) -> Sql_ast.Proj (resolve e, alias))
          q.Sql_ast.projections;
      Sql_ast.where = Option.map resolve q.Sql_ast.where;
      Sql_ast.group_by = List.map resolve q.Sql_ast.group_by;
      Sql_ast.having = Option.map resolve q.Sql_ast.having;
      Sql_ast.order_by = List.map (fun (e, d) -> (resolve e, d)) q.Sql_ast.order_by;
    }
  in
  let input_schema, input_rows, residual_where =
    match q.from with
    | Some (Sql_ast.Table { name; alias }) ->
      let table = Database.table db name in
      let qualifier = Option.value alias ~default:(Table.name table) in
      indexed_scan budget table ~qualifier q.where
    | Some f ->
      let schema, rows = eval_from budget db f in
      (schema, rows, q.where)
    | None -> (Schema.of_list [], [ [||] ], q.where)
  in
  (* WHERE: aggregates are illegal there, so compile scalar. *)
  let filtered =
    match residual_where with
    | None -> input_rows
    | Some e ->
      if Sql_ast.contains_agg e then
        Errors.fail Errors.Plan "aggregates are not allowed in WHERE";
      let c = Expr.compile (Expr.scalar_ctx input_schema) e in
      governed_filter budget (fun row -> Expr.is_true (c row [||])) input_rows
  in
  let filtered =
    (* The original WHERE may carry an aggregate even when an index probe
       consumed the only residual conjunct; reject it uniformly. *)
    match q.where with
    | Some e when Sql_ast.contains_agg e ->
      Errors.fail Errors.Plan "aggregates are not allowed in WHERE"
    | Some _ | None -> filtered
  in
  let projections = expand_projections input_schema q.projections in
  let output_exprs = List.map fst projections in
  let output_names = List.map snd projections in
  let having_exprs = Option.to_list q.having in
  let order_exprs = List.map fst q.order_by in
  let agg_list = collect_aggs (output_exprs @ having_exprs @ order_exprs) in
  let grouped = q.group_by <> [] || agg_list <> [] in
  let ctx = { Expr.schema = input_schema; agg_exprs = Array.of_list agg_list } in
  (* Rows entering projection: (representative input row, aggregate segment). *)
  let projection_inputs =
    if not grouped then List.map (fun row -> (row, [||])) filtered
    else begin
      let key_fns =
        List.map (fun e -> Expr.compile (Expr.scalar_ctx input_schema) e) q.group_by
      in
      let make_accs () =
        List.map
          (fun agg ->
            match agg with
            | Sql_ast.Agg { fn; distinct; arg } ->
              let counts_star = arg = Sql_ast.Star in
              let extract =
                if counts_star then fun _ -> Value.Null
                else begin
                  let c = Expr.compile (Expr.scalar_ctx input_schema) arg in
                  fun row -> c row [||]
                end
              in
              (Aggregate.create ~budget fn ~distinct ~counts_star, extract)
            | _ -> Errors.internal "non-aggregate in aggregate list")
          agg_list
      in
      let groups : (Row.t * (Aggregate.t * (Row.t -> Value.t)) list) Row_tbl.t =
        Row_tbl.create 64
      in
      let order = ref [] in
      (* A tick per input row; hash-table growth (a new group) is a
         materialised tuple. *)
      (try
         List.iter
           (fun row ->
             if not (Budget.step budget) then raise_notrace Stop_scan;
             let key = Array.of_list (List.map (fun f -> f row [||]) key_fns) in
             let accs =
               match Row_tbl.find_opt groups key with
               | Some (_, accs) -> accs
               | None ->
                 if not (Budget.admit budget) then raise_notrace Stop_scan;
                 let accs = make_accs () in
                 Row_tbl.add groups key (row, accs);
                 order := key :: !order;
                 accs
             in
             List.iter (fun (acc, extract) -> Aggregate.step acc (extract row)) accs)
           filtered
       with Stop_scan -> ());
      let keys = List.rev !order in
      let keys =
        (* Global aggregate over an empty input still yields one group. *)
        if keys = [] && q.group_by = [] then begin
          let arity = Schema.arity input_schema in
          let rep = Array.make arity Value.Null in
          Row_tbl.add groups [||] (rep, make_accs ());
          [ [||] ]
        end
        else keys
      in
      List.map
        (fun key ->
          let rep, accs = Row_tbl.find groups key in
          (rep, Array.of_list (List.map (fun (acc, _) -> Aggregate.final acc) accs)))
        keys
    end
  in
  (* HAVING *)
  let projection_inputs =
    match q.having with
    | None -> projection_inputs
    | Some e ->
      let c = Expr.compile ctx e in
      governed_filter budget (fun (row, aggs) -> Expr.is_true (c row aggs)) projection_inputs
  in
  (* Projection + sort keys. *)
  let compiled_outputs = List.map (Expr.compile ctx) output_exprs in
  let sort_specs =
    List.map
      (fun ((e : Sql_ast.expr), dir) ->
        let spec =
          match e with
          | Sql_ast.Col { qualifier = None; name } ->
            (* An output name is taken as stored, as [Schema.find_all] takes
               a column's. *)
            (match
               List.find_index (fun o -> Name.equal o name && Name.is_folded o) output_names
             with
            | Some i -> By_output i
            | None -> By_expr (Expr.compile ctx e))
          | Sql_ast.Lit (Value.Int k) when k >= 1 && k <= List.length output_names ->
            By_output (k - 1)
          | _ -> By_expr (Expr.compile ctx e)
        in
        (spec, dir))
      q.order_by
  in
  let produced =
    governed_map budget
      (fun (row, aggs) ->
        let out = Array.of_list (List.map (fun c -> c row aggs) compiled_outputs) in
        let keys =
          List.map
            (fun (spec, dir) ->
              let v = match spec with By_output i -> out.(i) | By_expr c -> c row aggs in
              (v, dir))
            sort_specs
        in
        (out, keys))
      projection_inputs
  in
  let produced =
    if not q.distinct then produced
    else begin
      let seen = Row_tbl.create 64 in
      governed_filter budget
        (fun (out, _) ->
          if Row_tbl.mem seen out then false
          else begin
            Row_tbl.add seen out ();
            true
          end)
        produced
    end
  in
  let produced =
    if sort_specs = [] then produced
    else begin
      (* A tick per row entering the sort. *)
      let produced = governed_filter budget (fun _ -> true) produced in
      let cmp (_, ka) (_, kb) =
        let rec go a b =
          match a, b with
          | [], [] -> 0
          | (va, dir) :: ra, (vb, _) :: rb ->
            let c = Value.compare va vb in
            let c = match dir with Sql_ast.Asc -> c | Sql_ast.Desc -> -c in
            if c <> 0 then c else go ra rb
          | _ -> 0
        in
        go ka kb
      in
      List.stable_sort cmp produced
    end
  in
  let rows = List.map fst produced in
  let rows =
    match q.offset with
    | Some n when n > 0 -> drop n rows
    | Some _ | None -> rows
  in
  let rows =
    match q.limit with
    | Some n -> take n rows
    | None -> rows
  in
  let out_schema =
    Schema.of_list
      (List.map2
         (fun e name -> Schema.column name (Expr.infer_type input_schema e))
         output_exprs output_names)
  in
  { schema = out_schema; rows }

let eval_const_expr (e : Sql_ast.expr) =
  let c = Expr.compile (Expr.scalar_ctx (Schema.of_list [])) e in
  c [||] [||]

let exec_insert budget db ~table ~columns ~rows =
  let t = Database.table db table in
  let schema = Table.schema t in
  let arrange =
    match columns with
    | None ->
      fun values ->
        if List.length values <> Schema.arity schema then
          Errors.fail Errors.Execute "INSERT into %s: expected %d values, got %d" table
            (Schema.arity schema) (List.length values);
        Array.of_list values
    | Some names ->
      let indices = List.map (fun n -> Schema.find_exn schema n) names in
      fun values ->
        if List.length values <> List.length indices then
          Errors.fail Errors.Execute "INSERT into %s: expected %d values, got %d" table
            (List.length indices) (List.length values);
        let row = Array.make (Schema.arity schema) Value.Null in
        List.iter2 (fun i v -> row.(i) <- v) indices values;
        row
  in
  (* Mutations are never truncated: a tick per row (strict budgets can
     still deadline or cancel), but partial mode inserts everything. *)
  List.iter
    (fun exprs ->
      ignore (Budget.step budget);
      Table.insert t (arrange (List.map eval_const_expr exprs)))
    rows;
  List.length rows

let compile_table_pred budget t where =
  let schema = Schema.with_qualifier (Table.schema t) (Table.name t) in
  match where with
  | None ->
    fun _ ->
      ignore (Budget.step budget);
      true
  | Some e ->
    let c = Expr.compile (Expr.scalar_ctx schema) e in
    fun row ->
      ignore (Budget.step budget);
      Expr.is_true (c row [||])

(* UNION: branches must agree in arity; the first branch names the output.
   Plain UNION deduplicates the combined rows; UNION ALL concatenates. *)
let exec_compound budget db (c : Sql_ast.compound) : result_set =
  let first = exec_select budget db c.Sql_ast.first in
  (* Accumulate branches in reverse and flip once at the end: appending with
     [@] re-copies the accumulator per branch, going quadratic in both the
     branch count and the row count. *)
  let rev_combined, needs_dedup =
    List.fold_left
      (fun (acc, dedup) (all, select) ->
        let branch = exec_select budget db select in
        if Schema.arity branch.schema <> Schema.arity first.schema then
          Errors.fail Errors.Plan "UNION branches must have the same number of columns";
        (List.rev_append branch.rows acc, dedup || not all))
      (List.rev first.rows, false) c.Sql_ast.rest
  in
  let combined = List.rev rev_combined in
  let rows =
    if not needs_dedup then combined
    else begin
      let seen = Row_tbl.create 64 in
      governed_filter budget
        (fun row ->
          if Row_tbl.mem seen row then false
          else begin
            Row_tbl.add seen row ();
            true
          end)
        combined
    end
  in
  { schema = first.schema; rows }

let exec_stmt_b budget db (stmt : Sql_ast.stmt) : outcome =
  match stmt with
  | Sql_ast.Select q ->
    let rs = exec_select budget db q in
    Rows { rs with rows = Budget.charge_rows budget rs.rows }
  | Sql_ast.Compound c ->
    let rs = exec_compound budget db c in
    Rows { rs with rows = Budget.charge_rows budget rs.rows }
  | Sql_ast.Create_table { name; columns } ->
    let schema = Schema.of_list (List.map (fun (n, ty) -> Schema.column n ty) columns) in
    let _ = Database.create_table db ~name ~schema in
    Table_created name
  | Sql_ast.Drop_table name ->
    Database.drop_table db name;
    Table_dropped name
  | Sql_ast.Insert { table; columns; rows } ->
    Affected (exec_insert budget db ~table ~columns ~rows)
  | Sql_ast.Delete { table; where } ->
    let t = Database.table db table in
    let pred = compile_table_pred budget t where in
    Affected (Table.delete_where t (fun row -> not (pred row)))
  | Sql_ast.Update { table; assignments; where } ->
    let t = Database.table db table in
    let schema = Schema.with_qualifier (Table.schema t) (Table.name t) in
    let pred = compile_table_pred budget t where in
    let compiled =
      List.map
        (fun (name, e) ->
          (Schema.find_exn schema name, Expr.compile (Expr.scalar_ctx schema) e))
        assignments
    in
    let transform row =
      let row' = Array.copy row in
      List.iter (fun (i, c) -> row'.(i) <- c row [||]) compiled;
      row'
    in
    Affected (Table.update_where t ~pred ~transform)

(* Public entry points: an omitted budget is a fresh unlimited strict one —
   the ungoverned path pays only the counter increments. *)
let or_default = function Some b -> b | None -> Budget.default ()

let resolve_subqueries ?budget db e = resolve_subqueries (or_default budget) db e

let exec_select ?budget db q = exec_select (or_default budget) db q

let exec_compound ?budget db c = exec_compound (or_default budget) db c

let exec_stmt ?budget db stmt = exec_stmt_b (or_default budget) db stmt
