(** The Compliance Auditing entry schema (Section 4.2):

    {v {(time,t), (op,X), (user,u), (data,d), (purpose,p),
    (authorized,a), (status,s)} v}

    op: 0 = disallow, 1 = allow.  status: 0 = exception-based access (the
    user manually entered the purpose — Break The Glass), 1 = regular. *)

type op =
  | Disallow
  | Allow

type status =
  | Exception_based
  | Regular

(** Optional provenance extension (after the MPI exemplar's audit
    tables).  Orthogonal to the paper's seven attributes: the relational
    export and Algorithm 5's SQL see the same seven columns either way. *)
type provenance = {
  session : string;
  request : string;
  parent : int option;  (** LSN of the operation this one descends from *)
  changed : string list;  (** the fields the operation touched *)
  integrity : int;  (** hash over the core fields + provenance-minus-this *)
}

type entry = {
  time : int;  (** logical timestamp *)
  op : op;
  user : string;
  data : string;  (** data category, from the vocabulary *)
  purpose : string;
  authorized : string;  (** authorization category (role) *)
  status : status;
  provenance : provenance option;
}

val entry :
  time:int ->
  op:op ->
  user:string ->
  data:string ->
  purpose:string ->
  authorized:string ->
  status:status ->
  entry
(** An entry without provenance; use {!with_provenance} to attach it. *)

val with_provenance :
  session:string -> request:string -> ?parent:int -> ?changed:string list -> entry -> entry
(** Attach (or replace) the provenance extension, computing the integrity
    hash over the final field values ([changed] defaults to []). *)

val integrity_hash : entry -> int
(** The hash {!with_provenance} stores: over the canonical core
    serialization and every provenance field except the hash itself. *)

val verify_integrity : entry -> bool
(** [true] when the stored integrity hash matches a recomputation — and
    vacuously for entries without provenance. *)

val op_to_int : op -> int
val op_of_int : int -> op
(** @raise Invalid_argument outside {0, 1}. *)

val status_to_int : status -> int
val status_of_int : int -> status
(** @raise Invalid_argument outside {0, 1}. *)

val attr_time : string
val attr_op : string
val attr_user : string
val attr_data : string
val attr_purpose : string
val attr_authorized : string
val attr_status : string

val attributes : string list
(** Schema order as given in the paper. *)

val relational_columns : (string * Relational.Value.ty) list
val relational_schema : unit -> Relational.Schema.t
val to_row : entry -> Relational.Row.t

val of_row : Relational.Row.t -> entry
(** @raise Invalid_argument on rows that do not follow
    {!relational_schema}. *)

val to_assoc : entry -> (string * string) list
(** The entry as the paper's rule of seven RuleTerms (ints rendered as
    strings). *)

val to_wire : entry -> string
(** Binary WAL payload: length-prefixed fields, round-trips any bytes.
    Entries with provenance continue past the core fields with a ['P']
    marker and the extension fields; entries without end exactly after the
    core.
    @raise Invalid_argument on a field longer than 65535 bytes. *)

val wire_bytes : room:int -> entry -> Bytes.t
(** [to_wire e] at offset [room] of a fresh [Bytes] of exactly
    [room + String.length (to_wire e)] bytes, the first [room] left for
    the caller (an op header): an entry and its header in one allocation.
    @raise Invalid_argument as {!to_wire}. *)

val max_field : int
(** 65535: the longest field the wire codec can length-prefix. *)

val check_wire : entry -> unit
(** @raise Invalid_argument exactly when {!to_wire} would, without
    encoding (for entries without provenance). *)

val of_wire : string -> entry option
(** Total inverse of {!to_wire}.  [None] is a codec mismatch: the payload
    already passed its checksum when it reached this parser. *)

val equal : entry -> entry -> bool
val pp : Format.formatter -> entry -> unit
