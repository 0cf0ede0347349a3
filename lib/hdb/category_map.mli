(** Mapping from physical schema to the privacy vocabulary: which data
    category each (table, column) holds, and which column identifies the
    patient.  Active Enforcement needs this to know what a query touches. *)

type t

val create : unit -> t
val set_category : t -> table:string -> column:string -> category:string -> unit
val category_of : t -> table:string -> column:string -> string option
val set_patient_column : t -> table:string -> column:string -> unit
val patient_column : t -> table:string -> string option

val is_mapped_table : t -> table:string -> bool
(** Whether the table is under enforcement at all. *)
