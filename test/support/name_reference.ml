(* The name comparisons the query path made before it compared names in
   place, kept verbatim: each folds a copy of the name and compares it
   with [=], [List.mem] or [String.equal]. *)

let keyword_equal s kw = String.uppercase_ascii s = kw

let reserved =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "OFFSET";
    "AND"; "OR"; "NOT"; "AS"; "ON"; "JOIN"; "LEFT"; "CROSS"; "INNER"; "BY";
    "ASC"; "DESC"; "IN"; "LIKE"; "IS"; "NULL"; "BETWEEN"; "DISTINCT"; "VALUES";
    "INSERT"; "INTO"; "DELETE"; "UPDATE"; "SET"; "CREATE"; "DROP"; "TABLE";
    "TRUE"; "FALSE"; "UNION"; "EXISTS" ]

let is_reserved s = List.mem (String.uppercase_ascii s) reserved

let find_all (t : Schema.t) ?qualifier name =
  let normalize = String.lowercase_ascii in
  let name = normalize name in
  let qualifier = Option.map normalize qualifier in
  let matches i (c : Schema.column) =
    let name_ok = String.equal c.Schema.name name in
    let qual_ok =
      match qualifier with
      | None -> true
      | Some q ->
        (match c.Schema.qualifier with Some cq -> String.equal (normalize cq) q | None -> false)
    in
    if name_ok && qual_ok then Some i else None
  in
  Array.to_list t |> List.mapi matches |> List.filter_map Fun.id

type category_map = {
  categories : (string * string, string) Hashtbl.t;
  patient_columns : (string, string) Hashtbl.t;
}

let create_map () = { categories = Hashtbl.create 32; patient_columns = Hashtbl.create 8 }

let normalize = String.lowercase_ascii

let set_category t ~table ~column ~category =
  Hashtbl.replace t.categories (normalize table, normalize column) category

let category_of t ~table ~column =
  Hashtbl.find_opt t.categories (normalize table, normalize column)

let set_patient_column t ~table ~column =
  Hashtbl.replace t.patient_columns (normalize table) (normalize column)

let patient_column t ~table = Hashtbl.find_opt t.patient_columns (normalize table)

let is_mapped_table t ~table =
  Hashtbl.mem t.patient_columns (normalize table)
  || Hashtbl.fold
       (fun (tbl, _) _ acc -> acc || String.equal tbl (normalize table))
       t.categories false
