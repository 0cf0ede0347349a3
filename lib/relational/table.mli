(** In-memory heap tables: schema + growable row store + hash indexes.

    Inserts type-check and coerce values against the schema.  Deletions
    compact the store and rebuild indexes — the right trade-off for PRIMA's
    read-mostly, append-heavy workloads (audit logs, clinical tables). *)

type t

val create : name:string -> schema:Schema.t -> t
val name : t -> string
val schema : t -> Schema.t
val row_count : t -> int

val version : t -> int
(** Bumped by every {!insert}, {!delete_where} and {!truncate}, and by an
    {!update_where} that changed a row: a reader that saw the same version
    saw the same rows.  Index builds leave it alone. *)

val insert : t -> Row.t -> unit
(** @raise Errors.Sql_error (Execute) on arity or type mismatch. *)

val insert_values : t -> Value.t list -> unit

val get : t -> int -> Row.t
(** By row id (insertion position). *)

val iter : (Row.t -> unit) -> t -> unit
val iteri : (int -> Row.t -> unit) -> t -> unit
val fold : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Row.t list

val create_index : t -> column_name:string -> unit
(** Idempotent; indexes existing rows immediately. *)

val index_on : t -> column:int -> Index.t option

val delete_where : t -> (Row.t -> bool) -> int
(** [delete_where t keep] retains rows satisfying [keep]; returns the number
    removed.  Row ids are renumbered. *)

val update_where : t -> pred:(Row.t -> bool) -> transform:(Row.t -> Row.t) -> int
(** Returns the number of rows changed; transformed rows are re-checked
    against the schema. *)

val truncate : t -> unit
val pp : Format.formatter -> t -> unit
