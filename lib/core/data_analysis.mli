(** dataAnalysis (Algorithm 5): translate (A, f, c) into the SQL statement

    {v SELECT A1,..,An FROM <table> GROUP BY A1,..,An
   HAVING COUNT( * ) >= f AND c v}

    and execute it on the relational engine. *)

type comparator =
  | At_least
      (** [COUNT( * ) >= f] — matches the paper's prose ("occurred at least
          f times") and the Section 5 walkthrough, where the pattern occurs
          exactly f = 5 times. *)
  | More_than  (** [COUNT( * ) > f] — the pseudocode read literally. *)

type config = {
  attributes : string list;  (** A: a subset of the audit schema *)
  min_frequency : int;  (** f: the system-defined threshold *)
  comparator : comparator;
  condition : string option;  (** c: extra HAVING conjunct, SQL text *)
}

val default_config : config
(** Algorithm 4's defaults: A = (data, purpose, authorized), f = 5,
    c = [COUNT(DISTINCT user) > 1], at-least comparator. *)

val materialize : Relational.Engine.t -> table_name:string -> Policy.t -> string list
(** Loads a policy of audit rules into a (re)created TEXT table and returns
    its column order: the seven audit-schema columns
    ({!Vocabulary.Audit_attrs.all}), then any other attribute appearing in
    the rules, in first-seen order.  A rule lacking an attribute leaves
    NULL in its column, so the statement's columns (e.g. [user] in the
    default condition) exist whatever the rules carry. *)

val statement : table_name:string -> config -> string
(** The generated SQL text (Algorithm 5, line 2). *)

val run :
  ?budget:Relational.Budget.t -> Relational.Engine.t -> table_name:string -> config ->
  Rule.t list
(** Executes the statement; each surviving group becomes a rule over
    [config.attributes].  [budget] governs the query (see
    {!Relational.Budget}); omitted, execution is ungoverned. *)

val analyse : ?config:config -> ?budget:Relational.Budget.t -> Policy.t -> Rule.t list
(** One-call variant: materialise into a fresh engine and run there. *)

(** {1 Governed execution with graceful degradation} *)

type governed = {
  patterns : Rule.t list;
  degraded : bool;
      (** the strict run exceeded its budget and the patterns were computed
          over a prefix of the practice table — a lower bound *)
  stats : Relational.Errors.budget_stats;  (** resources the run consumed *)
}

val exact : Rule.t list -> governed
(** Wraps an ungoverned result: [degraded = false], zero stats. *)

val run_governed :
  Relational.Engine.t ->
  table_name:string ->
  limits:Relational.Budget.limits ->
  config ->
  governed
(** Budgeted Algorithm 5: strict attempt first; when a quota fires, the
    same limits are retried in partial mode and the truncated pattern set
    is returned with [degraded = true]. *)

val analyse_governed :
  ?config:config ->
  limits:Relational.Budget.limits ->
  Policy.t ->
  governed
(** {!run_governed} against a fresh engine. *)
