(* The PRIMA policy-refinement component (Figure 4), at the policy level:
   it owns the policy store P_PS, consumes consolidated audit rules from
   Audit Management as P_AL, enforces a training period, and exposes
   coverage measurement and refinement runs.  The stakeholder-facing
   integration with HDB enforcement lives in the prima_system library. *)

(* One instance per distinct pattern rule of P_AL: audit trails repeat a
   few hundred (data, purpose, authorized) combinations across thousands
   of entries, so sharing them makes the projection one list cell per
   entry. *)
module Shared = Hashtbl.Make (struct
  type t = Rule.t

  let equal = Rule.equal
  let hash = Rule.hash
end)

type t = {
  mutable vocab : Vocabulary.Vocab.t;
  mutable p_ps : Policy.t;
  mutable p_al : Policy.t;
  (* P_AL projected onto the pattern attributes, kept beside it: exactly
     [Policy.project p_al ~attrs:Audit_attrs.pattern], extended by
     [ingest_rules] and cleared by [reset_audit], the only writers of
     either. *)
  mutable p_al_pattern : Policy.t;
  pattern_rules : Rule.t Shared.t;
  mutable training_minimum : int; (* entries required before refinement *)
  mutable refinement_config : Refinement.config;
  mutable history : Refinement.epoch_report list; (* newest first *)
}

let create ?(training_minimum = 0) ?(config = Refinement.default_config) ~vocab ~p_ps () =
  { vocab;
    p_ps;
    p_al = Policy.make ~source:Policy.Audit_log [];
    p_al_pattern = Policy.make ~source:Policy.Audit_log [];
    pattern_rules = Shared.create 256;
    training_minimum;
    refinement_config = config;
    history = [];
  }

let vocab t = t.vocab

(* Adopt an edited vocabulary (e.g. a taxonomy that grew a leaf mid-run).
   Vocabulary values are immutable and freshly stamped, so every grounding
   cache keyed by the old stamp goes cold at once — subsequent coverage
   readings must be indistinguishable from a from-scratch recompute. *)
let set_vocab t vocab = t.vocab <- vocab

let policy_store t = t.p_ps
let audit_policy t = t.p_al
let history t = List.rev t.history

let set_training_minimum t n = t.training_minimum <- n
let refinement_config t = t.refinement_config
let set_refinement_config t config = t.refinement_config <- config

let share t rule =
  match Shared.find_opt t.pattern_rules rule with
  | Some shared -> shared
  | None ->
    Shared.add t.pattern_rules rule rule;
    rule

(* Append to P_AL and to its projection; an empty batch leaves both (and
   their identity) untouched. *)
let ingest_rules t rules =
  if rules <> [] then begin
    let attrs = Vocabulary.Audit_attrs.pattern in
    t.p_al <- Policy.add_rules t.p_al rules;
    t.p_al_pattern <-
      Policy.add_rules t.p_al_pattern
        (List.filter_map (fun rule -> Option.map (share t) (Rule.project rule ~attrs)) rules)
  end

let add_store_rule t rule = t.p_ps <- Policy.add_rule t.p_ps rule

(* Both coverage readings of the paper at once. *)
type coverage_report = {
  set_semantics : Coverage.stats; (* Definition 9 *)
  bag_semantics : Coverage.stats; (* Section 5 accounting *)
}

(* [Coverage.aligned] over the store and P_AL, reading P_AL's kept
   projection instead of projecting the trail again. *)
let coverage t =
  let p_x = Policy.project t.p_ps ~attrs:Vocabulary.Audit_attrs.pattern in
  { set_semantics = Coverage.compute t.vocab ~p_x ~p_y:t.p_al_pattern;
    bag_semantics = Coverage.compute_bag t.vocab ~p_x ~p_y:t.p_al_pattern;
  }

let in_training t = Policy.cardinality t.p_al < t.training_minimum

(* Run one refinement pass over everything collected so far; the accepted
   patterns extend the policy store in place.  [Error] while the training
   period has not accumulated enough log.  [completeness] qualifies the
   epoch's coverage readings when P_AL came from a partial consolidation. *)
let refine ?(completeness = 1.0) ?(verified = true) t :
    (Refinement.epoch_report, string) result =
  if in_training t then
    Error
      (Printf.sprintf "training period: %d/%d audit entries collected"
         (Policy.cardinality t.p_al) t.training_minimum)
  else begin
    let report =
      Refinement.run_epoch ~config:t.refinement_config ~completeness ~verified
        ~p_al_pattern:t.p_al_pattern ~vocab:t.vocab ~p_ps:t.p_ps ~p_al:t.p_al ()
    in
    t.p_ps <- report.Refinement.p_ps';
    t.history <- report :: t.history;
    Ok report
  end

(* Drop consumed audit entries (e.g. after an epoch over a sliding window),
   together with their projection and its shared pattern rules. *)
let reset_audit t =
  t.p_al <- Policy.make ~source:Policy.Audit_log [];
  t.p_al_pattern <- Policy.make ~source:Policy.Audit_log [];
  Shared.reset t.pattern_rules
