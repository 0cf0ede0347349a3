(** {!Prima_core.Trail} as it was when every request walked every entry's
    codes: [frequent_groups] counts practice entries per group in one pass
    over the trail, and [coverage_bag] grounds each group and walks every
    entry.  Kept as the oracle for the running counters and cached
    verdicts that replaced the walks, and as E19's baseline. *)

type t

val create : unit -> t

type entry = {
  pattern : Rule.t option;
  user : string option;
  exception_based : bool;
  prohibition : bool;
}

val entry_of_rule : Rule.t -> entry
val append : t -> rules:Rule.t list Lazy.t -> ('a -> entry) -> 'a list -> unit
val append_rules : t -> Rule.t list -> unit
val length : t -> int
val policy : t -> Policy.t
val regular : t -> bool

val frequent_groups :
  t ->
  keep_prohibitions:bool ->
  frequent:(int -> bool) ->
  distinct_users:bool ->
  int * Rule.t list

val coverage : Vocabulary.Vocab.t -> t -> p_x:Policy.t -> Coverage.stats
val coverage_bag : Vocabulary.Vocab.t -> t -> p_x:Policy.t -> Coverage.stats
