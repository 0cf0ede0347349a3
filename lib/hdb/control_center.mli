(** The HDB Control Center: the single surface a deployment uses to stand
    up Active Enforcement + Compliance Auditing over a clinical database —
    define the vocabulary-backed rule base, patient consent and the
    column-to-category mapping, then run enforced queries and inspect the
    audit trail. *)

type t

val create : ?engine:Relational.Engine.t -> vocab:Vocabulary.Vocab.t -> unit -> t
val engine : t -> Relational.Engine.t
val rules : t -> Privacy_rules.t
val consent : t -> Consent.t
val logger : t -> Audit_logger.t
val enforcement : t -> Enforcement.t
val audit_store : t -> Audit_store.t

val admin_exec : t -> string -> Relational.Executor.outcome
(** Administrative SQL (DDL, loads); bypasses enforcement. *)

val permit : t -> data:string -> purpose:string -> authorized:string -> unit
val forbid : t -> data:string -> purpose:string -> authorized:string -> unit
val map_column : t -> table:string -> column:string -> category:string -> unit
val set_patient_column : t -> table:string -> column:string -> unit
val opt_out : t -> patient:string -> purpose:string -> data:string -> unit
val opt_in : t -> patient:string -> purpose:string -> data:string -> unit

val query_limits : t -> Relational.Budget.limits option
(** The resource limits applied to enforcement queries (None = ungoverned). *)

val set_query_limits : t -> Relational.Budget.limits option -> unit

val query :
  ?break_glass:bool ->
  ?budget:Relational.Budget.t ->
  t ->
  user:string ->
  role:string ->
  purpose:string ->
  string ->
  (Enforcement.outcome, Enforcement.error) result
(** An end-user query under enforcement.  With {!set_query_limits}
    configured (and no explicit [budget]), the query runs under a fresh
    {e strict} budget built from those limits: over quota it raises the
    typed {!Relational.Errors.Budget_exceeded} rather than returning
    silently truncated rows.  A [user], [role] or [purpose] longer than
    {!Audit_schema.max_field} bytes cannot be audited: the query is
    refused with [Unsupported] before it runs, and nothing is logged. *)

val audit_entries : t -> Audit_schema.entry list
