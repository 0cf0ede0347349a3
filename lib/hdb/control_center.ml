(* The HDB Control Center: the single surface a deployment uses to stand up
   Active Enforcement + Compliance Auditing over a clinical database — define
   the vocabulary-backed rule base, patient consent, the column-to-category
   mapping, then run enforced queries and inspect the audit trail. *)

type t = {
  engine : Relational.Engine.t;
  rules : Privacy_rules.t;
  consent : Consent.t;
  categories : Category_map.t;
  logger : Audit_logger.t;
  enforcement : Enforcement.t;
  mutable query_limits : Relational.Budget.limits option;
}

let create ?(engine = Relational.Engine.create ()) ~vocab () =
  let rules = Privacy_rules.create ~vocab in
  let consent = Consent.create ~vocab () in
  let categories = Category_map.create () in
  let logger = Audit_logger.create () in
  let enforcement = Enforcement.create ~engine ~rules ~consent ~categories ~logger in
  { engine; rules; consent; categories; logger; enforcement; query_limits = None }

let engine t = t.engine
let rules t = t.rules
let consent t = t.consent
let logger t = t.logger
let enforcement t = t.enforcement
let audit_store t = Audit_logger.store t.logger

(* Administrative SQL (DDL, loads) bypasses enforcement. *)
let admin_exec t sql = Relational.Engine.exec t.engine sql

let permit t ~data ~purpose ~authorized =
  Privacy_rules.add t.rules ~data ~purpose ~authorized ()

let forbid t ~data ~purpose ~authorized =
  Privacy_rules.add t.rules ~effect:Privacy_rules.Forbid ~data ~purpose ~authorized ()

let map_column t ~table ~column ~category =
  Category_map.set_category t.categories ~table ~column ~category

let set_patient_column t ~table ~column =
  Category_map.set_patient_column t.categories ~table ~column

let opt_out t ~patient ~purpose ~data =
  Consent.record t.consent ~patient ~purpose ~data Consent.Opt_out

let opt_in t ~patient ~purpose ~data =
  Consent.record t.consent ~patient ~purpose ~data Consent.Opt_in

let query_limits t = t.query_limits
let set_query_limits t limits = t.query_limits <- limits

(* Enforcement queries run under the configured limits as a strict budget:
   a user query over quota fails with the typed [Budget_exceeded] instead
   of silently returning a prefix of the rows — truncation is only a legal
   degradation for analysis queries, never for enforcement answers.  An
   explicit [budget] overrides the configured limits.  A context the audit
   codec cannot encode is refused before the query runs: a query that
   cannot be audited discloses nothing. *)
let query ?break_glass ?budget t ~user ~role ~purpose sql =
  if List.exists (fun v -> String.length v > Audit_schema.max_field) [ user; role; purpose ]
  then Error (Enforcement.Unsupported "user, role or purpose too long to audit")
  else
    let budget =
      match budget, t.query_limits with
      | Some _, _ -> budget
      | None, Some limits -> Some (Relational.Budget.create limits)
      | None, None -> None
    in
    Enforcement.run_query ?break_glass ?budget t.enforcement
      { Enforcement.user; role; purpose } sql

let audit_entries t = Audit_logger.entries t.logger
