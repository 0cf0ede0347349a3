(* Bridge between the audit world and the formal model: an audit entry is a
   seven-term rule (Section 4.2), a log is the ground policy P_AL
   (Definition 7). *)

let rule_of_entry (e : Hdb.Audit_schema.entry) : Prima_core.Rule.t =
  Prima_core.Rule.of_assoc (Hdb.Audit_schema.to_assoc e)

(* Projection to the pattern attributes, as Figure 3(b) presents log rules. *)
let pattern_rule_of_entry (e : Hdb.Audit_schema.entry) : Prima_core.Rule.t =
  Prima_core.Rule.of_assoc
    [ (Vocabulary.Audit_attrs.data, e.Hdb.Audit_schema.data);
      (Vocabulary.Audit_attrs.purpose, e.Hdb.Audit_schema.purpose);
      (Vocabulary.Audit_attrs.authorized, e.Hdb.Audit_schema.authorized);
    ]

(* Coding entries for a [Prima_core.Trail] without building their rules.
   The memo is keyed by an entry's (data, purpose, authorized) strings
   alone, so each distinct combination shares one pattern rule.  It is
   reset wholesale at [patterns_limit], like the intern table. *)
module Patterns = Hashtbl.Make (struct
  type t = Hdb.Audit_schema.entry

  let equal (a : t) (b : t) =
    String.equal a.data b.data
    && String.equal a.purpose b.purpose
    && String.equal a.authorized b.authorized

  let hash (e : t) =
    Hashtbl.hash e.data + (31 * (Hashtbl.hash e.purpose + (31 * Hashtbl.hash e.authorized)))
end)

type patterns = Prima_core.Rule.t option Patterns.t

let patterns () : patterns = Patterns.create 16
let patterns_limit = 1 lsl 16

let trail_entry memo (e : Hdb.Audit_schema.entry) : Prima_core.Trail.entry =
  let pattern =
    match Patterns.find memo e with
    | shared -> shared
    | exception Not_found ->
      if Patterns.length memo >= patterns_limit then Patterns.reset memo;
      let shared = Some (pattern_rule_of_entry e) in
      Patterns.add memo e shared;
      shared
  in
  { Prima_core.Trail.pattern;
    user = Some e.user;
    exception_based = e.status = Hdb.Audit_schema.Exception_based;
    prohibition = e.op = Hdb.Audit_schema.Disallow;
  }

let policy_of_entries entries : Prima_core.Policy.t =
  Prima_core.Policy.make ~source:Prima_core.Policy.Audit_log
    (List.map rule_of_entry entries)

let policy_of_store store : Prima_core.Policy.t =
  policy_of_entries (Hdb.Audit_store.to_list store)

(* Inverse direction (rules carrying all seven attributes only). *)
let entry_of_rule (rule : Prima_core.Rule.t) : Hdb.Audit_schema.entry option =
  let find attr = Prima_core.Rule.find_attr rule attr in
  match
    ( find Vocabulary.Audit_attrs.time,
      find Vocabulary.Audit_attrs.op,
      find Vocabulary.Audit_attrs.user,
      find Vocabulary.Audit_attrs.data,
      find Vocabulary.Audit_attrs.purpose,
      find Vocabulary.Audit_attrs.authorized,
      find Vocabulary.Audit_attrs.status )
  with
  | Some time, Some op, Some user, Some data, Some purpose, Some authorized, Some status
    -> begin
    match int_of_string_opt time, int_of_string_opt op, int_of_string_opt status with
    | Some time, Some op, Some status ->
      Some
        (Hdb.Audit_schema.entry ~time ~op:(Hdb.Audit_schema.op_of_int op) ~user ~data
           ~purpose ~authorized
           ~status:(Hdb.Audit_schema.status_of_int status))
    | _ -> None
  end
  | _ -> None
