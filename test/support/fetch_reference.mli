(** {!Audit_mgmt.Fault.fetch} as it was before suffix fetches, kept as
    the oracle for [Fault.fetch ?from].

    Every successful attempt walks the whole store and draws once per
    record, even where no draw can corrupt; [~from] then keeps the records
    at seqs [from, length).  A reference wrapped with the same seed and
    config as a {!Audit_mgmt.Fault.t}, and driven through the same heals
    and outages, must agree with it fetch for fetch. *)

type t

val wrap : ?config:Audit_mgmt.Fault.config -> seed:int -> Audit_mgmt.Site.t -> t
val heal : t -> unit
val take_down : t -> unit
val restore : t -> unit

val fetch :
  ?from:int ->
  t ->
  clock:int ref ->
  (Audit_mgmt.Fault.fetched, Audit_mgmt.Fault.failure) result
