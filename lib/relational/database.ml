(* Catalog: named tables. *)

type t = {
  name : string;
  tables : Table.t Name.Tbl.t; (* keyed by the folded name *)
}

let create ?(name = "main") () = { name; tables = Name.Tbl.create 16 }

let name t = t.name

let table_exists t table_name = Name.Tbl.mem t.tables table_name

let create_table t ~name ~schema =
  if Name.Tbl.mem t.tables name then
    Errors.fail Errors.Catalog "table %s already exists" name;
  let key = String.lowercase_ascii name in
  let table = Table.create ~name:key ~schema in
  Name.Tbl.add t.tables key table;
  table

let drop_table t table_name =
  if not (Name.Tbl.mem t.tables table_name) then
    Errors.fail Errors.Catalog "no such table: %s" table_name;
  Name.Tbl.remove t.tables table_name

let find_table t table_name = Name.Tbl.find_opt t.tables table_name

let table t table_name =
  match find_table t table_name with
  | Some table -> table
  | None -> Errors.fail Errors.Catalog "no such table: %s" table_name
