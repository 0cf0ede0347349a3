(** SQL values and column types.

    NULL is a first-class value.  Three-valued logic is implemented at the
    expression layer ({!Expr}); the comparisons here are total orders used
    for sorting, grouping and index keys, with NULL ordered first. *)

type ty =
  | T_int
  | T_float
  | T_string
  | T_bool

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val ty_to_string : ty -> string
(** SQL spelling of the type, e.g. ["INTEGER"]. *)

val ty_of_string : string -> ty option
(** Parses SQL type names; TIMESTAMP maps to {!T_int}, VARCHAR to
    {!T_string}. *)

val type_of : t -> ty option
(** [None] for {!Null}. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order: NULL first, then by type rank; mixed INTEGER/REAL compare
    numerically. *)

val equal : t -> t -> bool
(** [equal a b] iff [compare a b = 0]; note [Int 2] equals [Float 2.0]. *)

val hash : t -> int

val to_string : t -> string
(** Display form (unquoted strings). *)

val to_sql_literal : t -> string
(** Concrete-syntax literal; strings quoted with [''] doubling. *)

val pp : Format.formatter -> t -> unit

val as_int : t -> int option
(** Also accepts integral floats. *)

val as_float : t -> float option
val as_string : t -> string option

val coerce : ty -> t -> t option
(** [coerce ty v] fits [v] into a column of type [ty] using lossless
    widenings only (INT into REAL, integral REAL into INT); NULL fits every
    type.  [None] when the value does not fit. *)
