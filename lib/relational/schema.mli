(** Table schemas: named, typed columns with optional qualifiers.

    Column names are case-insensitive; qualifiers carry table aliases
    through joins so that [t.col] references resolve unambiguously. *)

type column = {
  name : string; (** stored lowercase *)
  ty : Value.ty;
  qualifier : string option; (** table alias in scope, if any *)
}

type t = column array

val column : ?qualifier:string -> string -> Value.ty -> column
(** Builds a column; the name is lowercased. *)

val of_list : column list -> t
val arity : t -> int
val columns : t -> column list
val column_names : t -> string list

val find_all : t -> ?qualifier:string -> string -> int list
(** All positions matching name (and qualifier, when given). *)

val find : t -> ?qualifier:string -> string -> (int, string) result
(** Unique resolution; [Error] describes unknown or ambiguous columns. *)

val find_exn : t -> ?qualifier:string -> string -> int
(** @raise Errors.Sql_error (Plan) on unknown/ambiguous columns. *)

val mem : t -> string -> bool
val ty_at : t -> int -> Value.ty
val name_at : t -> int -> string

val with_qualifier : t -> string -> t
(** Requalifies every column, e.g. when a table enters scope under an
    alias. *)

val concat : t -> t -> t
(** Join output schema: left columns then right columns. *)

val pp_column : Format.formatter -> column -> unit
val pp : Format.formatter -> t -> unit
