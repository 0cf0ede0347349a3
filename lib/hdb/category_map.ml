(* Mapping from physical schema to the privacy vocabulary: which data
   category each (table, column) holds, and which column identifies the
   patient.  Active Enforcement needs this to know what a query touches. *)

type t = {
  categories : (string * string, string) Hashtbl.t; (* (table, column) -> category *)
  patient_columns : (string, string) Hashtbl.t; (* table -> patient id column *)
}

let create () = { categories = Hashtbl.create 32; patient_columns = Hashtbl.create 8 }

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
