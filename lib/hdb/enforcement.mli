(** HDB Active Enforcement: the query-rewriting middleware of Figure 5.

    A user query arrives with a context (user, role, chosen purpose).  The
    enforcer parses it, maps touched columns to data categories, consults
    the privacy rules and patient consent, and rewrites the query so that
    only policy- and consent-consistent data is returned:

    - cell-level limitation: projections of forbidden categories are
      replaced by NULL (keeping the output shape);
    - row-level limitation: a patient-exclusion predicate is injected for
      patients who opted out of the uses the query makes;
    - predicate columns of forbidden categories deny the whole query
      (masking cannot fix information flow through WHERE).

    Denied queries may be re-issued with [~break_glass:true]; the original
    query then runs unmasked and every disclosed category is logged as an
    exception-based access (status 0) — the raw material of PRIMA
    refinement. *)

type context = {
  user : string;
  role : string;  (** authorization category, a vocabulary value *)
  purpose : string;  (** chosen (or manually entered) purpose *)
}

type t

type outcome = {
  result : Relational.Executor.result_set;
  rewritten_sql : string;  (** what actually ran, for inspection *)
  masked_columns : string list;
  excluded_patients : string list;
  break_glass : bool;
  disclosed_categories : string list;
}

type error =
  | Denied of string
  | Unsupported of string

val create :
  engine:Relational.Engine.t ->
  rules:Privacy_rules.t ->
  consent:Consent.t ->
  categories:Category_map.t ->
  logger:Audit_logger.t ->
  t

val engine : t -> Relational.Engine.t
val logger : t -> Audit_logger.t
val rules : t -> Privacy_rules.t
val consent : t -> Consent.t
val categories : t -> Category_map.t

val rewrite :
  t ->
  context ->
  Relational.Sql_ast.select ->
  (Relational.Sql_ast.select * string list * string list * string list, error) result
(** The rewrite: [(rewritten, masked columns, excluded patients,
    disclosed categories)] or the denial.  Queries over unmapped tables
    pass through untouched.  A disclosure from a table whose patient
    column is neither TEXT nor INTEGER is [Unsupported].

    Side effects: the first exclusion computed over a table builds a hash
    index on its patient column, which the table then keeps current; and
    each exclusion list is cached under (table, patient column, purpose,
    disclosed categories) and reused while the table is the same value at
    the same {!Relational.Table.version} and {!Consent.count} has not
    moved, so the first query per key after a write pays the full
    computation.  Rule decisions are memoized by {!Privacy_rules.decide}. *)

val run_query :
  ?break_glass:bool ->
  ?budget:Relational.Budget.t ->
  t ->
  context ->
  string ->
  (outcome, error) result
(** Rewrite, execute, audit.  Non-SELECT statements are [Unsupported].
    [budget] governs the rewritten (or break-glass) execution; a strict
    budget that fires raises the typed
    {!Relational.Errors.Budget_exceeded} rather than returning silently
    truncated rows. *)

val error_to_string : error -> string
