(** The case-folding name comparisons of the query path before
    {!Relational.Name}: each folds a copy of the looked-up name.  Kept as
    the oracle for the in-place comparisons that replaced them. *)

val keyword_equal : string -> string -> bool
(** The parser's keyword test: [String.uppercase_ascii s = kw]. *)

val reserved : string list
(** The parser's reserved words. *)

val is_reserved : string -> bool
(** [List.mem (String.uppercase_ascii s) reserved]. *)

val find_all : Relational.Schema.t -> ?qualifier:string -> string -> int list
(** [Relational.Schema.find_all] as it was: the looked-up name folded and
    compared with each column's stored name, qualifiers folded on both
    sides. *)

(** [Hdb.Category_map] as it was: keys folded where stored and again on
    every lookup, and [is_mapped_table] a fold over every mapped column. *)

type category_map

val create_map : unit -> category_map
val set_category : category_map -> table:string -> column:string -> category:string -> unit
val category_of : category_map -> table:string -> column:string -> string option
val set_patient_column : category_map -> table:string -> column:string -> unit
val patient_column : category_map -> table:string -> string option
val is_mapped_table : category_map -> table:string -> bool
