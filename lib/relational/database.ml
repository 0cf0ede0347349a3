(* Catalog: named tables. *)

type t = {
  name : string;
  tables : (string, Table.t) Hashtbl.t;
}

let create ?(name = "main") () = { name; tables = Hashtbl.create 16 }

let name t = t.name

let normalize = String.lowercase_ascii

let table_exists t table_name = Hashtbl.mem t.tables (normalize table_name)

let create_table t ~name ~schema =
  let key = normalize name in
  if Hashtbl.mem t.tables key then
    Errors.fail Errors.Catalog "table %s already exists" name;
  let table = Table.create ~name:key ~schema in
  Hashtbl.add t.tables key table;
  table

let drop_table t table_name =
  let key = normalize table_name in
  if not (Hashtbl.mem t.tables key) then
    Errors.fail Errors.Catalog "no such table: %s" table_name;
  Hashtbl.remove t.tables key

let find_table t table_name = Hashtbl.find_opt t.tables (normalize table_name)

let table t table_name =
  match find_table t table_name with
  | Some table -> table
  | None -> Errors.fail Errors.Catalog "no such table: %s" table_name
