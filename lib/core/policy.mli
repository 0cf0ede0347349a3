(** Policy (Definition 7): a collection of rules tied to a data store — the
    policy store P_PS (the ideal workflow) or the audit logs P_AL (the real
    workflow).

    The collection is a {e sequence}, not a set: audit-log policies
    legitimately repeat rules, and the Section 5 coverage accounting counts
    the repetitions. *)

type source =
  | Policy_store
  | Audit_log
  | Derived of string

type t

val make : ?source:source -> Rule.t list -> t
val of_assoc_list : ?source:source -> (string * string) list list -> t
val source : t -> source
val rules : t -> Rule.t list

val cardinality : t -> int
(** #P of Definition 7 (occurrences, not distinct rules). *)

val is_ground : Vocabulary.Vocab.t -> t -> bool
val add_rule : t -> Rule.t -> t
val add_rules : t -> Rule.t list -> t
val union : t -> t -> t
val filter : (Rule.t -> bool) -> t -> t

val dedupe : t -> t
(** Distinct rules under syntactic equality, first-seen order. *)

val project : t -> attrs:string list -> t
(** Projects every rule; rules with no surviving term drop out. *)

val mem_syntactic : t -> Rule.t -> bool
val source_to_string : source -> string
val pp : Format.formatter -> t -> unit
