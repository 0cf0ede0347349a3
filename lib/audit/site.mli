(** One audited system in the clinical environment: a named audit store
    plus the mapping that normalises its raw records.

    Raw ingestion is atomic per record: malformed records are routed to the
    site's quarantine instead of aborting the batch, and every raw record
    carries a site-local sequence number so retried batches are idempotent
    (exactly-once ingestion). *)

type t

val create : ?mapping:Mapping.t -> ?quarantine:Quarantine.t -> name:string -> unit -> t
(** A fresh site with its own store and quarantine; [mapping] defaults to
    {!Mapping.identity}.  [quarantine] lets a restarted site adopt a
    quarantine recovered from a durable op log (items keep their original
    seqs, so reprocessing composes with batch retries across the
    restart). *)

val of_store :
  ?mapping:Mapping.t -> ?quarantine:Quarantine.t -> name:string -> Hdb.Audit_store.t -> t
(** Attach an existing store — e.g. an enforcement logger's. *)

val name : t -> string
val store : t -> Hdb.Audit_store.t
val mapping : t -> Mapping.t

val set_mapping : t -> Mapping.t -> unit
(** Replace the mapping — e.g. after a synonym fix; quarantined records can
    then be pushed back through {!reprocess_quarantined}. *)

val quarantine : t -> Quarantine.t
val quarantined_count : t -> int
val length : t -> int

val next_seq : t -> int
(** The sequence number the next fresh raw record will receive. *)

val ingest_entry : t -> Hdb.Audit_schema.entry -> unit
val ingest_entries : t -> Hdb.Audit_schema.entry list -> unit

val ingest_raw : t -> (string * string) list -> unit
(** Legacy single-record path: a raw record through the site's mapping,
    bypassing sequence accounting.
    @raise Mapping.Unmappable on malformed records. *)

type ingest_summary = {
  ingested : int;
  quarantined : int;
  duplicates : int;
}

val summary_total : ingest_summary -> int

val ingest_raw_batch :
  ?first_seq:int -> t -> (string * string) list list -> ingest_summary
(** A batch whose records occupy seqs [first_seq, first_seq + length);
    defaults to the next fresh seqs.  A retried batch re-sends the same
    [first_seq]: already-ingested (or already-quarantined) records count as
    duplicates and are skipped, giving exactly-once ingestion across
    retries.  Never raises — malformed records are quarantined per record,
    leaving the rest of the batch ingested. *)

val ingest_raw_all : t -> (string * string) list list -> ingest_summary
(** [ingest_raw_batch] at the next fresh sequence numbers. *)

(** {2 Admitted ingestion} — the tenant gate in front of the mutation
    path.  Ingestion is a {!Admission.Mutation}, so it is never browned
    out: either the whole batch is admitted and ingests exactly as the
    un-gated path would, or it is shed with a typed retryable rejection
    before any state (store, ledger, quarantine, WAL) is touched. *)

val set_admission : t -> Admission.t option -> unit
(** Attach (or detach) the shared admission controller. *)

val admission : t -> Admission.t option

val ingest_entries_admitted :
  t -> now:int -> principal:Admission.principal -> Hdb.Audit_schema.entry list ->
  (int, Admission.rejection) result
(** All-or-nothing: [Ok n] ingested the whole batch of [n] entries;
    [Error r] shed it whole. *)

val reprocess_quarantined : t -> ingest_summary
(** Push quarantined records back through the (possibly fixed) mapping;
    records that still fail return to quarantine.  Original seqs are kept,
    so reprocessing never double-ingests. *)

val entries : t -> Hdb.Audit_schema.entry list

(** {2 Per-site durability}

    A site may sit on its own {!Durable.Log.t}: every mutation — an
    accepted entry, a ledger mark, a quarantine add/remove, a sequence
    advance — is framed as an op record into the write-ahead log {e
    before} the in-memory state changes, so the store, the exactly-once
    ledger and the in-flight quarantine survive a site-local crash and
    replay locally instead of re-ingesting from the source.  A site with
    its own WAL owns its quarantine's durability — do not also
    {!Quarantine.restore} a log onto the same quarantine. *)

(** The op records of a site WAL, one per mutation (a checkpoint image
    re-encodes live state as ['E'], ['P'], ['Q'] and ['N'] ops). *)
type op =
  | Op_entry of Hdb.Audit_schema.entry  (** ['E']: entry accepted outside the ledger *)
  | Op_seq_entry of int * Hdb.Audit_schema.entry  (** ['S']: entry accepted at a seq *)
  | Op_processed of int  (** ['P']: ledger mark alone *)
  | Op_quarantined of int * string * (string * string) list
      (** ['Q']: record quarantined at a seq, with its reason and raw form *)
  | Op_unquarantined of int  (** ['R']: record left quarantine *)
  | Op_next of int  (** ['N']: sequence floor advanced *)

val encode_op : op -> string
(** The WAL payload of one op.  An entry op is built in one allocation
    with its entry's wire form.
    @raise Invalid_argument when the entry's wire form would. *)

val decode_op : string -> op option
(** Inverse of {!encode_op}; [None] on anything else. *)

val attach_wal : t -> Durable.Log.t -> unit
(** Future mutations are write-ahead logged.  State already held is
    {e not} retro-logged — attach at creation or via {!restore}. *)

val wal : t -> Durable.Log.t option

val recovery : t -> Durable.Recovery.t option
(** The report of the last {!restore}, if any. *)

val undecodable : t -> int
(** Recovered ops that no longer decode (0 unless the codec changed). *)

val sync_wal : t -> unit
(** fsync the attached WAL (no-op without one). *)

val checkpoint_wal : t -> unit
(** Compact the op history into a snapshot of the live state (entries,
    ledger, quarantine, sequence floor) and truncate the WAL. *)

val enable_auto_checkpoint : ?policy:Durable.Log.checkpoint_policy -> t -> unit
(** Register a background-compaction policy (default: every 1024 WAL
    records) on the attached WAL; no-op without one. *)

val restore : t -> Durable.Log.t -> Durable.Recovery.t * int
(** Open-or-recover [log], replay the verified ops into [t] (assumed
    fresh), attach the log, and return the recovery report plus the count
    of undecodable ops.  A lossy or tampered recovery leaves the site
    {!durably_degraded} until {!acknowledge_replay}. *)

val open_durable :
  ?mapping:Mapping.t -> name:string -> Durable.Log.t -> t * Durable.Recovery.t * int
(** [create] + {!restore} — the crash-restart entry point. *)

val durably_degraded : t -> bool
(** The last recovery lost records (torn tail), found tampering, or hit
    undecodable ops, and the feed has not yet replayed the lost suffix:
    the site's own length is not a trustworthy total, so consolidation
    must keep coverage at [Lower_bound]. *)

val acknowledge_replay : t -> unit
(** The feed declares it has re-sent everything past the verified prefix
    (it knows the lost suffix; the site only knows its [next_seq] floor),
    clearing {!durably_degraded}. *)
