(** Minimal RFC-4180-style CSV for fixtures and result export.

    Quoted fields may contain commas, quotes ([""] escape) and newlines.
    An {e unquoted} empty field reads as NULL; a {e quoted} empty field
    ([""]) reads as the empty string on STRING columns.  The writer emits
    NULL as the bare empty field and [Str ""] as [""], so the two
    round-trip distinguishably. *)

type field = {
  text : string;
  quoted : bool;  (** the field was written in double quotes *)
}

val parse_field_seq : string -> field list list
(** Raw records with quoting information (no header handling).
    @raise Errors.Sql_error (Parse) on unterminated quotes. *)

val parse_field_seq_numbered : string -> (int * field list) list
(** Like {!parse_field_seq}, each record paired with the 1-based physical
    line its first field starts on — quoted fields may span lines, which
    is why the record index alone cannot locate an error. *)

val parse_line_seq_numbered : string -> (int * string list) list
(** {!parse_field_seq_numbered} with the quoting information dropped. *)

val parse_value : ?quoted:bool -> Value.ty -> string -> Value.t
(** One field under a column type; an empty field is NULL unless [quoted]
    (default [false]) and the column is STRING, in which case it is
    [Str ""].
    @raise Errors.Sql_error (Parse) on unreadable fields. *)

val load_into : Table.t -> string -> has_header:bool -> int
(** Appends parsed rows (column order must match the schema); returns the
    number of rows loaded. *)

val escape_field : string -> string
(** Quotes a field when it contains commas, quotes or newlines. *)

val value_to_field : Value.t -> string
val result_to_csv : Schema.t -> Row.t list -> string
(** With a header line of column names. *)
