(** Facade over the relational engine: parse-and-execute SQL against a
    database.

    This is the surface Algorithm 5's [executeQuery] runs on, and the
    substrate whose queries HDB Active Enforcement rewrites. *)

type t

val create : ?name:string -> unit -> t
val database : t -> Database.t

val parse : string -> Sql_ast.stmt
(** Alias of {!Sql_parser.parse_stmt}. *)

val exec : ?budget:Budget.t -> t -> string -> Executor.outcome
(** Parse and execute one statement.  [budget] governs the whole
    execution (see {!Budget}); omitted, execution is ungoverned. *)

val exec_stmt : ?budget:Budget.t -> t -> Sql_ast.stmt -> Executor.outcome

val query : ?budget:Budget.t -> t -> string -> Executor.result_set
(** @raise Errors.Sql_error (Execute) when the statement is not a query. *)

val query_select : ?budget:Budget.t -> t -> Sql_ast.select -> Executor.result_set
(** Execute an already-built SELECT (the enforcement path). *)

val command : ?budget:Budget.t -> t -> string -> int
(** Rows affected; 0 for DDL.
    @raise Errors.Sql_error (Execute) when the statement returns rows. *)

val query_scalar : ?budget:Budget.t -> t -> string -> Value.t
(** First column of the first row.
    @raise Errors.Sql_error (Execute) when no rows are returned. *)

val table : t -> string -> Table.t
val create_table : t -> name:string -> columns:(string * Value.ty) list -> Table.t
val insert_row : t -> table:string -> Value.t list -> unit

val pp_result : Format.formatter -> Executor.result_set -> unit
(** Aligned ASCII table. *)

val result_to_csv : Executor.result_set -> string
