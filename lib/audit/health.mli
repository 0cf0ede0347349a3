(** The health report a fault-aware consolidation returns alongside its
    merged entries.

    Accounting invariant: every input record known to the federation is
    exactly one of delivered, quarantined, or stranded at a skipped site —
    [delivered + quarantined + skipped_entries = total] — and
    [completeness = delivered / total].

    A [Stale] site was served from the durable archive while its live
    fetch failed: archived records count as delivered, the lag as
    stranded.  Durability state rides along: each site's pending WAL
    replay, and the archive's shard tally as the consolidation's archive
    steps left it.  The report is the one source of the federation's
    lower-bound reasons ({!evidence}): a durably degraded site's own
    totals are not trustworthy, so coverage stays a lower bound even when
    the record accounting looks complete. *)

type skip_reason =
  | Breaker_open
  | Fetch_failed of string  (** retries exhausted; the last failure *)

type site_status =
  | Delivered of { retries : int }
  | Stale of { archived : int; lag : int }
      (** served from the durable archive; [lag] records not yet archived *)
  | Skipped of skip_reason

type site_health = {
  site : string;
  status : site_status;
  fetched : int;
      (** records the transport carried in this consolidation: the store's
          length on a whole fetch, the new records on a suffix fetch, 0
          when the site was served stale or skipped *)
  entries : int;
  quarantined : int;
  skipped_entries : int;
  breaker : Breaker.state;
  trips : int;  (** lifetime breaker trips for this site *)
  site_degraded : bool;  (** site-WAL recovery lossy/tampered, replay pending *)
}

val make :
  ?site_degraded:bool ->
  ?fetched:int ->
  site:string ->
  status:site_status ->
  entries:int ->
  quarantined:int ->
  skipped_entries:int ->
  breaker:Breaker.state ->
  trips:int ->
  unit ->
  site_health
(** [site_degraded] defaults to [false], [fetched] to 0. *)

type t = {
  sites : site_health list;
  classes : Admission.class_stats list;
      (** per-budget-class admission counters; [[]] when no admission
          controller is attached *)
  delivered : int;
  quarantined : int;
  skipped_entries : int;
  total : int;
  completeness : float;
  shards : (string * (int * int)) list;
      (** the archive's shards per archived site, member or not, and how
          many of them are torn or tampered ({!Shard_store.tally}) *)
}

val of_sites :
  ?classes:Admission.class_stats list ->
  shards:(string * (int * int)) list ->
  site_health list ->
  t

val complete : t -> bool

val evidence : t -> Prima_core.Coverage.evidence
(** The window's completeness and the federation's lower-bound reasons:
    {!Prima_core.Coverage.Site_dark} for each site that strands entries
    (skipped, or stale with a lag; a skipped site with nothing stored adds
    none), {!Prima_core.Coverage.Wal_tail_lost} for a site whose WAL
    replay is pending, {!Prima_core.Coverage.Shard_degraded} for an
    archived site with torn or tampered shards, and one
    {!Prima_core.Coverage.Quarantined} with the report's total.  The
    completeness is below 1.0 exactly when a [Site_dark] or [Quarantined]
    reason is present. *)

val site_completeness : site_health -> float
(** [entries / (entries + quarantined + skipped_entries)] for one site;
    a site with zero expected entries is vacuously complete (1.0), never
    NaN. *)

val site_ok : site_health -> bool
val skip_reason_to_string : skip_reason -> string
val pp_status : Format.formatter -> site_status -> unit
val pp_class : Format.formatter -> Admission.class_stats -> unit
val pp : Format.formatter -> t -> unit
