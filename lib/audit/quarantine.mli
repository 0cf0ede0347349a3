(** Holding area for audit records the federation could not take in.

    Raw records a site's mapping rejected, or records that arrived corrupted
    from a remote fetch, are parked here — with the offending raw record,
    the site-local sequence number (the exactly-once key) and a reason — so
    they can be reprocessed after a mapping fix or a clean re-fetch.  With
    quarantine in the accounting, every input record is either ingested,
    quarantined, or at a skipped site: nothing is silently dropped. *)

type item = {
  site : string;
  seq : int;
  raw : (string * string) list;
  reason : string;
}

type t

val create : unit -> t
val length : t -> int
val mem : t -> site:string -> seq:int -> bool

val add :
  t -> site:string -> seq:int -> raw:(string * string) list -> reason:string -> unit
(** Idempotent on [(site, seq)]: re-adding replaces the reason without
    duplicating the item. *)

val remove : t -> site:string -> seq:int -> unit
val items : t -> item list
val site_items : t -> site:string -> item list
val site_count : t -> site:string -> int

val take_site : t -> site:string -> item list
(** Remove and return every item of [site] — the reprocessing entry point;
    the caller re-applies the (possibly fixed) mapping and re-adds whatever
    still fails. *)

val clear : t -> unit

(** {2 Durability}

    A quarantine may sit on a {!Durable.Log.t}: every mutation ({!add},
    {!remove}, {!clear}) is then framed as an op record into the
    write-ahead log {e before} the tables change, so quarantined items —
    and their resolution — survive a restart.  Mutations are durable once
    {!sync}ed; {!checkpoint} compacts the op history into a snapshot of
    the live items. *)

val log : t -> Durable.Log.t option

val sync : t -> unit
(** fsync the attached log (no-op without one). *)

val checkpoint : t -> unit
(** Write the live items as a snapshot image and truncate the WAL. *)

val enable_auto_checkpoint : ?policy:Durable.Log.checkpoint_policy -> t -> unit
(** Register a background-compaction policy (default: every 1024 WAL
    records) on the attached log; no-op without one.  Safe because
    mutations are write-ahead: the image taken when the trigger fires is
    exactly the state the logged ops produce. *)

val restore : t -> Durable.Log.t -> Durable.Recovery.t * int
(** Open-or-recover [log], replay the verified ops into [t] (assumed
    fresh), attach the log, and return the recovery report plus the count
    of ops that no longer decode (0 unless the codec changed). *)

val open_durable : Durable.Log.t -> t * Durable.Recovery.t * int
(** [create] + {!restore}. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
