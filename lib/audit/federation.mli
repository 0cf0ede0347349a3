(** The PRIMA Audit Management component: a consolidated virtual view over
    every site's audit trail — the role DB2 Information Integrator plays in
    the paper's first instantiation.

    Two consolidation paths coexist: {!consolidated} is the trusted direct
    view (in-process reads, cannot fail — also the fault-free baseline for
    the fault-matrix suite), while {!consolidated_result} is the production
    path — breaker-gated, retried fetches through each site's fault wrapper,
    corrupted records quarantined, and a {!Health.t} report accounting for
    100% of input records. *)

type t

val create : ?retry:Retry.policy -> ?seed:int -> unit -> t
(** [seed] feeds the retry-jitter PRNG; fault schedules have their own
    per-site seeds (see {!Fault.wrap}). *)

val of_sites : Site.t list -> t

val add_site : t -> Site.t -> unit
(** A member with perfect in-process transport. *)

val add_faulty_site : ?breaker:Breaker.config -> t -> Fault.t -> unit
(** A member reached through a fault-injection wrapper, gated by its own
    circuit breaker. *)

val sites : t -> Site.t list
val site : t -> string -> Site.t option
val fault : t -> string -> Fault.t option
val breaker : t -> string -> Breaker.t option

val set_fault : t -> string -> Fault.t option -> unit
(** Replace (or clear) a member's fault wrapper.
    @raise Invalid_argument on an unknown site. *)

val reseat_site : t -> string -> Site.t -> unit
(** Swap in a replacement site — e.g. one rebuilt from its WAL after a
    crash — keeping the member's breaker history and fault schedule.
    @raise Invalid_argument on an unknown site. *)

val attach_archive : t -> Shard_store.t -> unit
(** Attach the durable consolidated archive: successful fetches are
    archived per (site, time-range) shard, and a site whose live fetch
    fails — or whose breaker is open — is served {e stale} from its
    servable shards instead of being skipped outright. *)

val archive : t -> Shard_store.t option

val logs : t -> Durable.Log.t list
(** Every log the federation reaches, the one list of them: each member's
    op WAL ({!Site.wal}) and its store's own log ({!Hdb.Audit_store.log} —
    the central audit WAL is the store log of the member [System]
    registers), in member order, then the transit quarantine's log.  The
    archive's shard logs are not listed: its manifest must follow them,
    so it keeps its own {!Shard_store.sync} and {!Shard_store.checkpoint}. *)

val set_admission : t -> Admission.t option -> unit
(** Attach (or detach) the tenant admission controller.  The federation
    holds the only reference: the system's query gate and every caller of
    {!Site.ingest_entries_admitted} read it through {!admission}. *)

val admission : t -> Admission.t option

val pressure_signals : t -> Admission.pressure
(** The live overload signals, the only definition of backpressure: the
    unsynced records summed over {!logs}, degraded archive shards, and
    open breakers. *)

val refresh_pressure : t -> unit
(** Re-derive {!pressure_signals} into the attached controller (no-op
    without one).  {!consolidated_result} does this first. *)

val heal_all : t -> unit
(** {!Fault.heal} every member — the recovery step of the convergence
    oracle. *)

val clock : t -> int
(** The simulated millisecond clock retries and breaker cooldowns run on. *)

val advance_clock : t -> int -> unit

val transit_quarantine : t -> Quarantine.t
(** Records corrupted in transit during the latest fetch of each site; a
    later clean fetch of the site clears its items. *)

val total_entries : t -> int

val consolidated : t -> Hdb.Audit_schema.entry list
(** Tournament merge of the per-site streams by timestamp; ties resolve
    in site order (stable and deterministic).  Out-of-order site logs are
    sorted defensively.  Direct in-process reads: never fails. *)

type position
(** One consolidation, as a later call names it with [~since]. *)

type result_t = {
  entries : Hdb.Audit_schema.entry list;
      (** the whole merge; with [extends], only what follows the merge at
          [since] *)
  health : Health.t;  (** always describes the whole window *)
  extends : bool;
  position : position;  (** this consolidation *)
}

val consolidated_result : ?since:position -> t -> result_t
(** The production path: each site fetched through its fault wrapper (if
    any) under retry/backoff, gated by its circuit breaker; corrupted
    records quarantined.  Never raises — failures degrade the health report
    instead: delivered + quarantined + stranded = 100% of known input.
    With an archive attached, failed sites degrade to stale archive reads
    (see {!attach_archive}), and the health report carries the durable
    state: each site's pending WAL replay, and the archive's shard tally
    as this consolidation's archive steps left it.

    A member whose last consolidation delivered it live with nothing
    corrupted — from the same site, through the same wrapper, which cannot
    corrupt ([p_corrupt <= 0]) — is fetched by suffix: the transport
    carries only the records past its cursor (the fault stream advances as
    for a whole fetch), and the archive appends them by position.  When
    [since] is this federation's latest consolidation, every member was
    fetched by suffix, and every new record sorts after that merge's last
    entry under the merge's (time, member order) key, [entries] is just
    the merge of the suffixes and [extends] holds.  Otherwise [entries] is
    the whole merge: without [since] the result is exactly a whole
    consolidation's, fault draws and clock included. *)

val to_policy : t -> Prima_core.Policy.t
(** The consolidated view as P_AL. *)

val window : t -> time_from:int -> time_to:int -> Hdb.Audit_schema.entry list
(** Consolidated entries within an inclusive time window — e.g. one
    refinement epoch. *)

val pp : Format.formatter -> t -> unit
