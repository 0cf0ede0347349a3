(** The fine-grained privacy rules entered through the HDB Control Center:
    (data category, purpose, authorized role) triples with an effect.

    Matching is vocabulary-aware: a rule naming a composite value covers
    every ground value beneath it, so one abstract rule authorises a whole
    subtree — exactly the composite-rule semantics of the formal model.
    Decisions are closed-world (no matching permit means deny) and deny
    overrides permit. *)

type effect =
  | Permit
  | Forbid

type rule = {
  data : string;
  purpose : string;
  authorized : string;
  effect : effect;
}

type t

val create : vocab:Vocabulary.Vocab.t -> t
val vocab : t -> Vocabulary.Vocab.t

val add : t -> ?effect:effect -> data:string -> purpose:string -> authorized:string -> unit -> unit
(** [effect] defaults to {!Permit}. *)

val rules : t -> rule list
(** In insertion order. *)

val count : t -> int

val decide : t -> data:string -> purpose:string -> authorized:string -> effect
val permits : t -> data:string -> purpose:string -> authorized:string -> bool

val conflicts : t -> (rule * rule) list
(** (permit, forbid) pairs whose subtrees intersect: some ground access
    both rules claim.  Deny wins at decision time; surfacing the pairs lets
    the privacy officer repair the rule base. *)

val pp_rule : Format.formatter -> rule -> unit
