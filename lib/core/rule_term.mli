(** RuleTerm (Definition 1): an (attribute, value) pair — the atomic unit
    every privacy policy notation maps onto. *)

type t

val make : attr:string -> value:string -> t
(** Interns [attr] and [value] in a process-wide table that is reset once
    it holds {!intern_limit} strings, so it stays bounded however many
    distinct values (e.g. audit timestamps) pass through. *)

val intern_limit : int

val interned : unit -> int
(** Strings the intern table currently holds; never above {!intern_limit}. *)

val attr : t -> string
val value : t -> string

val equal_syntactic : t -> t -> bool
(** Structural identity (no vocabulary involved).  O(1) on the fast path:
    strings are interned and the hash is precomputed, so distinct terms are
    rejected by hash and equal terms accepted by pointer comparison; terms
    interned on either side of a table reset compare by content. *)

val compare : t -> t -> int
(** Total order by attribute then value; canonicalises rules. *)

val hash : t -> int
(** Precomputed structural hash, O(1). *)

val is_ground : Vocabulary.Vocab.t -> t -> bool
(** Definition 2: the value is atomic w.r.t. the vocabulary.  Values (or
    attributes) outside the vocabulary are ground by convention. *)

val ground_set : Vocabulary.Vocab.t -> t -> t list
(** Definition 3: the set RT' of ground terms derivable from this term.
    Always non-empty; a ground term grounds to itself. *)

val equivalent : Vocabulary.Vocab.t -> t -> t -> bool
(** Definition 4: the ground sets share a member.  Terms over different
    attributes are never equivalent. *)

val pp : Format.formatter -> t -> unit
