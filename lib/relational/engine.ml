(* Public facade over the relational engine: parse-and-execute SQL against a
   database, with convenience accessors for query results.  This is the
   surface Algorithm 5's [executeQuery] runs on, and the substrate HDB
   enforcement rewrites queries for. *)

type t = {
  db : Database.t;
}

let create ?name () = { db = Database.create ?name () }

let database t = t.db

let parse = Sql_parser.parse_stmt

(* Each entry point threads one optional [Budget.t] through the whole
   statement; omitted, execution is ungoverned (an unlimited strict
   budget). *)
let exec ?budget t sql = Executor.exec_stmt ?budget t.db (parse sql)

let exec_stmt ?budget t stmt = Executor.exec_stmt ?budget t.db stmt

let query ?budget t sql : Executor.result_set =
  match exec ?budget t sql with
  | Executor.Rows rs -> rs
  | Executor.Affected _ | Executor.Table_created _ | Executor.Table_dropped _ ->
    Errors.fail Errors.Execute "statement did not produce rows: %s" sql

let query_select ?budget t (select : Sql_ast.select) : Executor.result_set =
  match exec_stmt ?budget t (Sql_ast.Select select) with
  | Executor.Rows rs -> rs
  | _ -> Errors.internal "SELECT produced a non-row outcome"

let command ?budget t sql : int =
  match exec ?budget t sql with
  | Executor.Affected n -> n
  | Executor.Table_created _ | Executor.Table_dropped _ -> 0
  | Executor.Rows _ -> Errors.fail Errors.Execute "expected a command, got a query: %s" sql

(* Single-value convenience: the first column of the first row. *)
let query_scalar ?budget t sql : Value.t =
  let rs = query ?budget t sql in
  match rs.Executor.rows with
  | row :: _ when Row.arity row > 0 -> Row.get row 0
  | _ -> Errors.fail Errors.Execute "query returned no rows: %s" sql

let table t name = Database.table t.db name

let create_table t ~name ~columns =
  let schema = Schema.of_list (List.map (fun (n, ty) -> Schema.column n ty) columns) in
  Database.create_table t.db ~name ~schema

let insert_row t ~table:table_name values =
  Table.insert_values (table t table_name) values

let pp_result ppf (rs : Executor.result_set) =
  let names = Schema.column_names rs.Executor.schema in
  let rows = List.map (fun r -> List.map Value.to_string (Row.to_list r)) rs.Executor.rows in
  let widths =
    List.mapi
      (fun i name ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length name) rows)
      names
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_line cells = String.concat " | " (List.map2 pad cells widths) in
  Fmt.pf ppf "%s@." (render_line names);
  Fmt.pf ppf "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> Fmt.pf ppf "%s@." (render_line r)) rows

let result_to_csv (rs : Executor.result_set) = Csv.result_to_csv rs.Executor.schema rs.Executor.rows
