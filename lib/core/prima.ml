(* The PRIMA policy-refinement component (Figure 4), at the policy level:
   it owns the policy store P_PS, consumes consolidated audit rules from
   Audit Management as P_AL, enforces a training period, and exposes
   coverage measurement and refinement runs.  The stakeholder-facing
   integration with HDB enforcement lives in the prima_system library. *)

type t = {
  mutable vocab : Vocabulary.Vocab.t;
  mutable p_ps : Policy.t;
  (* P_AL, coded (see Trail); [ingest_rules] and outside appends extend
     it, [reset_audit] replaces it *)
  mutable trail : Trail.t;
  mutable training_minimum : int; (* entries required before refinement *)
  mutable refinement_config : Refinement.config;
  mutable history : Refinement.epoch_report list; (* newest first *)
}

let create ?(training_minimum = 0) ?(config = Refinement.default_config) ~vocab ~p_ps () =
  { vocab;
    p_ps;
    trail = Trail.create ();
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
let audit_policy t = Trail.policy t.trail
let trail t = t.trail
let history t = List.rev t.history

let set_training_minimum t n = t.training_minimum <- n
let refinement_config t = t.refinement_config
let set_refinement_config t config = t.refinement_config <- config

(* Append to P_AL; an empty batch leaves it (and its identity) untouched. *)
let ingest_rules t rules = Trail.append_rules t.trail rules

(* Both coverage readings of the paper at once. *)
type coverage_report = {
  set_semantics : Coverage.stats; (* Definition 9 *)
  bag_semantics : Coverage.stats; (* Section 5 accounting *)
}

(* [Coverage.aligned] over the store and P_AL, read from P_AL's codes. *)
let coverage t =
  let p_x = Policy.project t.p_ps ~attrs:Vocabulary.Audit_attrs.pattern in
  { set_semantics = Trail.coverage t.vocab t.trail ~p_x;
    bag_semantics = Trail.coverage_bag t.vocab t.trail ~p_x;
  }

let in_training t = Trail.length t.trail < t.training_minimum

(* Run one refinement pass over everything collected so far; the accepted
   patterns extend the policy store in place.  [Error] while the training
   period has not accumulated enough log.  [evidence] is what the caller
   knows about P_AL (a partial or unverified consolidation, a brownout). *)
let refine ?evidence t : (Refinement.epoch_report, string) result =
  if in_training t then
    Error
      (Printf.sprintf "training period: %d/%d audit entries collected"
         (Trail.length t.trail) t.training_minimum)
  else begin
    let report =
      Refinement.run_trail_epoch ~config:t.refinement_config ?evidence ~vocab:t.vocab
        ~p_ps:t.p_ps t.trail
    in
    t.p_ps <- report.Refinement.p_ps';
    t.history <- report :: t.history;
    Ok report
  end

(* Drop consumed audit entries (e.g. after an epoch over a sliding window). *)
let reset_audit t = t.trail <- Trail.create ()
