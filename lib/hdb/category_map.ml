(* Mapping from physical schema to the privacy vocabulary: which data
   category each (table, column) holds, and which column identifies the
   patient.  Active Enforcement needs this to know what a query touches. *)

open Relational

(* Keys are stored folded; lookups compare in place.  The tables with a
   mapped column are [categories]' keys, so [is_mapped_table] walks
   nothing. *)
type t = {
  categories : string Name.Tbl.t Name.Tbl.t; (* table -> column -> category *)
  patient_columns : string Name.Tbl.t; (* table -> patient id column *)
}

let create () = { categories = Name.Tbl.create 8; patient_columns = Name.Tbl.create 8 }

let normalize = String.lowercase_ascii

let set_category t ~table ~column ~category =
  if not (Name.Tbl.mem t.categories table) then
    Name.Tbl.replace t.categories (normalize table) (Name.Tbl.create 32);
  Name.Tbl.replace (Name.Tbl.find t.categories table) (normalize column) category

let category_of t ~table ~column =
  match Name.Tbl.find_opt t.categories table with
  | Some columns -> Name.Tbl.find_opt columns column
  | None -> None

let set_patient_column t ~table ~column =
  Name.Tbl.replace t.patient_columns (normalize table) (normalize column)

let patient_column t ~table = Name.Tbl.find_opt t.patient_columns table

let is_mapped_table t ~table =
  Name.Tbl.mem t.patient_columns table || Name.Tbl.mem t.categories table
