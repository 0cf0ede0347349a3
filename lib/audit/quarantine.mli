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
    the log is {!Durable.Log.sync}ed; a {!Durable.Log.checkpoint} compacts
    the op history into a snapshot of the live items. *)

type op =
  | Op_add of item  (** ['A']: an item added, or replaced *)
  | Op_remove of string * int  (** ['R']: the item at (site, seq) left *)
  | Op_clear  (** ['C'] *)

val encode_op : op -> string
(** The WAL payload of one op; a checkpoint image is the live items as
    [Op_add]s. *)

val decode_op : string -> op option
(** Inverse of {!encode_op}; [None] on anything else. *)

val log : t -> Durable.Log.t option

val restore : t -> Durable.Log.t -> Durable.Recovery.t * int
(** Open-or-recover [log], replay the verified ops into [t] (assumed
    fresh), attach the log ({!Durable.Log.attach}, with the live items as
    the snapshot image), and return the recovery report plus the count of
    ops that no longer decode (0 unless the codec changed). *)

val open_durable : Durable.Log.t -> t * Durable.Recovery.t * int
(** [create] + {!restore}. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
