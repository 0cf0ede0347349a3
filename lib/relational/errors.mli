(** Engine-wide error reporting.

    Every user-facing failure of the relational engine is one of the typed
    exceptions below, so callers can report precisely without matching
    internal exceptions.  This is the fuzzer's contract: any other
    exception escaping the engine is a bug. *)

type phase =
  | Lex  (** tokenisation of SQL text *)
  | Parse  (** syntactic analysis *)
  | Plan  (** name resolution / query validation *)
  | Execute  (** runtime evaluation *)
  | Catalog  (** table catalog operations *)

type position = {
  offset : int;  (** byte offset of the offending token in the SQL text *)
  token : string;  (** the token as written, ["<eof>"] at end of input *)
}

type resource =
  | Rows  (** output-row quota *)
  | Tuples  (** intermediate-tuple (memory) quota *)
  | Time  (** simulated-time deadline *)

type budget_stats = {
  rows_out : int;
  tuples : int;
  ticks : int;
}

exception Sql_error of phase * string
(** Phase-tagged failure without a source position (plan/execute/catalog). *)

exception Parse_error of { phase : phase; message : string; position : position }
(** Lex or parse failure pointing at the offending token. *)

exception Budget_exceeded of resource * budget_stats
(** A {!Budget} quota fired in strict mode, with the counters at the point
    of exhaustion. *)

exception Cancelled of budget_stats
(** The query reached its budget's cancellation tick ([Budget.create
    ~cancel_at]).  Raised in every budget mode: cancellation is a user
    abort, not a degradation. *)

exception Internal of string
(** An engine invariant broke — a bug, not bad input. *)

val phase_to_string : phase -> string
val resource_to_string : resource -> string
val stats_to_string : budget_stats -> string

val fail : phase -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail phase fmt ...] raises {!Sql_error} with a formatted message. *)

val fail_at : phase -> offset:int -> token:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail_at phase ~offset ~token fmt ...] raises {!Parse_error}. *)

val internal : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Internal}. *)

val to_string : exn -> string
(** Human-readable rendering; falls back to [Printexc] for foreign
    exceptions. *)
