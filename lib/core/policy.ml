(* Definition 7: a policy is a collection of rules tied to a data store —
   the policy store (P_PS, the ideal workflow) or the audit logs (P_AL, the
   real workflow).  The collection is a *sequence*, not a set: audit-log
   policies legitimately repeat rules, and Section 5's 3/10 coverage counts
   those repetitions. *)

type source =
  | Policy_store
  | Audit_log
  | Derived of string

type t = {
  source : source;
  rules : Rule.t list;
}

let make ?(source = Derived "anonymous") rules = { source; rules }

let of_assoc_list ?source pairs = make ?source (List.map Rule.of_assoc pairs)

let source t = t.source

let rules t = t.rules

(* #P of Definition 7. *)
let cardinality t = List.length t.rules

let is_ground vocab t = List.for_all (Rule.is_ground vocab) t.rules

let add_rule t rule = { t with rules = t.rules @ [ rule ] }

let add_rules t rules = { t with rules = t.rules @ rules }

let union a b = { a with rules = a.rules @ b.rules }

let filter p t = { t with rules = List.filter p t.rules }

(* Distinct rules under syntactic equality, preserving first-seen order. *)
let dedupe t =
  let seen = Hashtbl.create 64 in
  let rules =
    List.filter
      (fun rule ->
        let key = Rule.to_assoc rule in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      t.rules
  in
  { t with rules }

(* Project every rule onto [attrs]; rules with no surviving term drop out. *)
let project t ~attrs =
  { t with rules = List.filter_map (fun rule -> Rule.project rule ~attrs) t.rules }

let mem_syntactic t rule = List.exists (Rule.equal_syntactic rule) t.rules

let source_to_string = function
  | Policy_store -> "PS"
  | Audit_log -> "AL"
  | Derived name -> name

let pp ppf t =
  Fmt.pf ppf "policy[%s] (%d rules):@." (source_to_string t.source) (cardinality t);
  List.iteri (fun i rule -> Fmt.pf ppf "  %d. %a@." (i + 1) Rule.pp rule) t.rules
