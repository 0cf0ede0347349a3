(* The fine-grained privacy rules entered through the HDB Control Center:
   (data category, purpose, authorized role) triples with an effect.
   Matching is vocabulary-aware — a rule naming a composite value covers
   every ground value beneath it, so one abstract rule authorises a whole
   subtree, exactly the composite-rule semantics of the formal model. *)

type effect =
  | Permit
  | Forbid

type rule = {
  data : string;
  purpose : string;
  authorized : string;
  effect : effect;
}

type t = {
  vocab : Vocabulary.Vocab.t;
  mutable rules : rule list;
}

let create ~vocab = { vocab; rules = [] }

let vocab t = t.vocab

let add t ?(effect = Permit) ~data ~purpose ~authorized () =
  t.rules <- { data; purpose; authorized; effect } :: t.rules

let rules t = List.rev t.rules

let count t = List.length t.rules

let covers_value vocab ~attr ~rule_value ~request_value =
  Vocabulary.Vocab.subsumes_value vocab ~attr ~ancestor:rule_value
    ~descendant:request_value

let rule_matches vocab rule ~data ~purpose ~authorized =
  covers_value vocab ~attr:Vocabulary.Samples.attr_data ~rule_value:rule.data
    ~request_value:data
  && covers_value vocab ~attr:Vocabulary.Samples.attr_purpose ~rule_value:rule.purpose
       ~request_value:purpose
  && covers_value vocab ~attr:Vocabulary.Samples.attr_authorized
       ~rule_value:rule.authorized ~request_value:authorized

(* Deny overrides permit; absence of any matching rule denies (closed
   world, per the limited-use-and-disclosure provision). *)
let decide t ~data ~purpose ~authorized =
  let matching =
    List.filter (fun r -> rule_matches t.vocab r ~data ~purpose ~authorized) t.rules
  in
  if List.exists (fun r -> r.effect = Forbid) matching then Forbid
  else if List.exists (fun r -> r.effect = Permit) matching then Permit
  else Forbid

let permits t ~data ~purpose ~authorized = decide t ~data ~purpose ~authorized = Permit

(* Conflicts: a permit and a forbid whose (data, purpose, authorized)
   subtrees intersect — some ground access both rules claim.  Deny wins at
   decision time, but surfacing the pairs lets the privacy officer repair
   the rule base. *)
let conflicts t : (rule * rule) list =
  let values_intersect attr a b =
    Vocabulary.Vocab.equivalent_values t.vocab ~attr a b
  in
  let overlap a b =
    values_intersect Vocabulary.Samples.attr_data a.data b.data
    && values_intersect Vocabulary.Samples.attr_purpose a.purpose b.purpose
    && values_intersect Vocabulary.Samples.attr_authorized a.authorized b.authorized
  in
  let all = rules t in
  List.concat_map
    (fun permit_rule ->
      match permit_rule.effect with
      | Forbid -> []
      | Permit ->
        List.filter_map
          (fun forbid_rule ->
            match forbid_rule.effect with
            | Permit -> None
            | Forbid ->
              if overlap permit_rule forbid_rule then Some (permit_rule, forbid_rule)
              else None)
          all)
    all

let pp_rule ppf r =
  Fmt.pf ppf "%s: data=%s purpose=%s authorized=%s"
    (match r.effect with Permit -> "permit" | Forbid -> "forbid")
    r.data r.purpose r.authorized
