(** Bridge between the audit world and the formal model: an audit entry is
    a seven-term rule (Section 4.2); a log is the ground policy P_AL
    (Definition 7). *)

val rule_of_entry : Hdb.Audit_schema.entry -> Prima_core.Rule.t

val pattern_rule_of_entry : Hdb.Audit_schema.entry -> Prima_core.Rule.t
(** Projection to (data, purpose, authorized), as Figure 3(b) presents log
    rules. *)

type patterns
(** A memo of shared pattern rules, one per distinct
    (data, purpose, authorized). *)

val patterns : unit -> patterns

val trail_entry : patterns -> Hdb.Audit_schema.entry -> Prima_core.Trail.entry
(** The entry's columns for {!Prima_core.Trail.append}, equal to
    [Trail.entry_of_rule (rule_of_entry e)] but without building the
    rule: its pattern rule comes from the memo (built by
    {!pattern_rule_of_entry} on a miss). *)

val policy_of_entries : Hdb.Audit_schema.entry list -> Prima_core.Policy.t
(** Tagged with the {!Prima_core.Policy.Audit_log} source. *)

val policy_of_store : Hdb.Audit_store.t -> Prima_core.Policy.t

val entry_of_rule : Prima_core.Rule.t -> Hdb.Audit_schema.entry option
(** Inverse direction; [None] unless the rule carries all seven audit
    attributes with readable time/op/status values. *)
