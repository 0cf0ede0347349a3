(** Pure in-memory oracle for the chaos harness.

    Fed the same entries and the same accepted patterns as the real system
    but subject to no faults: plain lists for the stores, a stable sort by
    timestamp for consolidation, and the fault-free ungoverned refinement
    epoch as the ceiling on what the system may accept.  Shares no
    machinery with the implementation under test. *)

type t

val create : vocab:Vocabulary.Vocab.t -> p_ps:Prima_core.Policy.t -> nsites:int -> t

val append_clinical : t -> Hdb.Audit_schema.entry list -> unit
val append_remote : t -> int -> Hdb.Audit_schema.entry list -> unit

val clinical : t -> Hdb.Audit_schema.entry list
(** Everything ever appended to the clinical store, in append order. *)

val clinical_length : t -> int

val synced : t -> int
(** The durable floor: a crash may never lose entries below this index. *)

val set_synced : t -> int -> unit

val remote : t -> int -> Hdb.Audit_schema.entry list
(** Everything ever ingested at remote [i], in append order. *)

val remote_length : t -> int -> int

val remote_synced : t -> int -> int
(** Remote [i]'s durable floor: a site-local crash may never lose entries
    below this index. *)

val set_remote_synced : t -> int -> int -> unit

val mark_all_synced : t -> unit
(** A whole-system sync: the clinical floor and every remote floor rise
    to the current stream lengths. *)

val p_ps : t -> Prima_core.Policy.t

val vocab : t -> Vocabulary.Vocab.t

val set_vocab : t -> Vocabulary.Vocab.t -> unit
(** Mirror a mid-run vocabulary edit: every subsequent coverage and epoch
    computation grounds against the re-stamped vocabulary the system
    adopted. *)

val consolidated : t -> Hdb.Audit_schema.entry list
(** The fault-free consolidated trail: stable time sort across the
    clinical and remote streams in federation site order. *)

val trail_policy : t -> Prima_core.Policy.t
(** P_AL over the full fault-free trail. *)

val coverage : t -> Prima_core.Coverage.stats * Prima_core.Coverage.stats
(** Exact (set, bag) coverage of the full trail against the mirrored
    store, pattern-attribute projection — the system's readings may never
    exceed these. *)

val epoch : t -> Prima_core.Refinement.epoch_report
(** The hypothetical fault-free, ungoverned refinement epoch: the ceiling
    on what the system's refine may accept. *)

val install : t -> Prima_core.Rule.t list -> unit
(** Mirror patterns the system actually accepted into the model's store. *)

(** {1 Admission mirror}

    A pure token bucket per tenant — the oracle for invariant 10
    (admission fairness).  Same closed-boundary refill arithmetic as
    {!Audit_mgmt.Admission}, none of its machinery. *)

val set_tenant_classes : t -> (int * int) list -> unit
(** One [(capacity, refill_per_s)] rows bucket per tenant, full at
    clock 0. *)

val set_tenant_quota : t -> tenant:int -> capacity:int -> refill_per_s:int -> unit
(** Mirror a mid-run class reconfiguration: the level clamps to the new
    capacity; carry and refill clock survive. *)

val tenant_tokens : t -> tenant:int -> now:int -> int
(** The bucket level after refilling to [now]. *)

val admit_requests :
  t -> tenant:int -> now:int -> level:int -> ?serve_cap:int -> count:int -> unit -> int
(** How many of [count] single-row mutation requests the gate must admit
    at [now] under pressure [level] (strict admission needs [1 + level]
    tokens per request, debits one); [serve_cap] caps the answer at the
    server drain capacity left for this tenant.  Debits the bucket by the
    returned count. *)
