(* The uncached rule decision: deny overrides permit, and no matching rule
   forbids (closed world).  A rule matches when each of its three values
   subsumes the request's in the rule base's vocabulary. *)

module Rules = Hdb.Privacy_rules

let decide rules ~data ~purpose ~authorized =
  let vocab = Rules.vocab rules in
  let covers attr ~rule_value ~request_value =
    Vocabulary.Vocab.subsumes_value vocab ~attr ~ancestor:rule_value ~descendant:request_value
  in
  let matches (r : Rules.rule) =
    covers Vocabulary.Samples.attr_data ~rule_value:r.Rules.data ~request_value:data
    && covers Vocabulary.Samples.attr_purpose ~rule_value:r.Rules.purpose ~request_value:purpose
    && covers Vocabulary.Samples.attr_authorized ~rule_value:r.Rules.authorized
         ~request_value:authorized
  in
  let permitted, forbidden =
    List.fold_left
      (fun (permitted, forbidden) (r : Rules.rule) ->
        if not (matches r) then (permitted, forbidden)
        else
          match r.Rules.effect with
          | Rules.Permit -> (true, forbidden)
          | Rules.Forbid -> (permitted, true))
      (false, false) (Rules.rules rules)
  in
  if permitted && not forbidden then Rules.Permit else Rules.Forbid
