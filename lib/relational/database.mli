(** Catalog of named tables.  Table names are case-insensitive. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string
val table_exists : t -> string -> bool

val create_table : t -> name:string -> schema:Schema.t -> Table.t
(** @raise Errors.Sql_error (Catalog) when the name is taken. *)

val drop_table : t -> string -> unit
(** @raise Errors.Sql_error (Catalog) when absent. *)

val find_table : t -> string -> Table.t option

val table : t -> string -> Table.t
(** @raise Errors.Sql_error (Catalog) when absent. *)
