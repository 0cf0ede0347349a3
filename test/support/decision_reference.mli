(** {!Hdb.Privacy_rules.decide} without its memo: a fold over
    {!Hdb.Privacy_rules.rules} that judges every rule on every call.  Kept
    as the oracle for the memoized decision. *)

val decide :
  Hdb.Privacy_rules.t -> data:string -> purpose:string -> authorized:string ->
  Hdb.Privacy_rules.effect
