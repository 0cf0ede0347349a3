(** The consolidated archive, sharded by (site, time-range) behind a
    checksummed {!Durable.Manifest}.

    Every shard is one {!Durable.Log} holding one site's wire-encoded
    entries for one time bucket; the manifest is rewritten — after the
    shards sync — at every durability point.  Open-or-recover degrades
    per shard, never whole-store: a short shard is [Torn] (its verified
    prefix still serves), a [Tamper_detected] shard is quarantined (its
    catalogued records counted stranded), an unreadable manifest is
    rebuilt by scanning the shards, and a clean fetch supersedes a
    damaged archive by rebuilding that site's shards wholesale. *)

type status =
  | Healthy
  | Torn of { lost : int }
      (** records known lost (0 = tail dropped, count unknown) *)
  | Tampered of { offset : int }
      (** divergence offset; the shard is quarantined from the merge *)

type t

val status_to_string : status -> string

val default_bucket_ms : int
val create : ?bucket_ms:int -> ?seed:int -> unit -> t
val bucket_ms : t -> int
val bucket_of : t -> int -> int

val manifest_device : t -> Durable.Device.t

val devices : t -> (string * Durable.Device.t * Durable.Device.t) list
(** The surviving media, for crash simulation / reopen: per shard its
    name and (wal, snapshot) devices — the simulated directory listing.
    Each site's shards are listed together, buckets ascending, and the
    sites in the order they were first archived; a site rebuilt from a
    fetch, or brought back as torn placeholders after a reopen lost every
    device it had, goes last.  {!sync}'s manifest lists them alike. *)

val shard_count : t -> int
val total_records : t -> int
val shards_degraded : t -> int

val tally : t -> (string * (int * int)) list
(** Per archived site, sorted: its shard count and how many of those are
    torn or tampered. *)

val site_records : t -> site:string -> int
(** Records servable for [site] (tampered shards serve none). *)

val site_stranded : t -> site:string -> int
(** Records catalogued for [site] but unservable (tampered shards). *)

val site_degraded : t -> site:string -> bool
val site_high_water : t -> site:string -> int
(** Newest archived timestamp for [site]; [-1] with nothing archived. *)

type archive_summary = {
  appended : int;  (** fresh records archived this call *)
  rebuilt : bool;  (** the site's shards were rebuilt from the fetch *)
}

val archive_site : t -> site:string -> Hdb.Audit_schema.entry list -> archive_summary
(** Archive one site's fetched stream (time-sorted).  The prefix at or
    below the high-water mark must equal the held records entry by entry
    ({!Hdb.Audit_schema.equal}), not just in count; any disagreement
    rebuilds the site's shards wholesale from the fetch. *)

val append_site :
  t -> site:string -> held:int -> newest:int -> Hdb.Audit_schema.entry list -> bool
(** Append [site]'s records by position: the entries are its stream from
    record [held] on, none older than [newest], the newest timestamp among
    the first [held].  Applies, and returns [true], only when the archive
    holds exactly [held] records for [site], on healthy shards, the newest
    at [newest]; otherwise leaves the archive untouched.  An entry
    repeating the newest archived timestamp is appended, not taken as
    already held. *)

val merged_site : t -> site:string -> Hdb.Audit_schema.entry list
(** [site]'s servable records in bucket order, which is time order: the
    stream a stale serve returns. *)

val sync : t -> unit
(** Sync every shard, then rewrite the manifest — in that order, so the
    manifest never claims records the shards do not durably hold. *)

val checkpoint : t -> unit
(** Checkpoint every shard log and rewrite the manifest. *)

type shard_report = {
  r_name : string;
  r_site : string;
  r_status : status;
  r_records : int;
}

type open_report = {
  manifest_rebuilt : bool;  (** the manifest was damaged; rebuilt from scans *)
  adopted : int;  (** shard devices the manifest did not know *)
  lost : string list;  (** catalogued shards with no surviving device *)
  shard_reports : shard_report list;
}

val reopen :
  ?bucket_ms:int ->
  ?seed:int ->
  manifest:Durable.Device.t ->
  shards:(string * Durable.Device.t * Durable.Device.t) list ->
  unit ->
  t * open_report
(** Rebuild a store from surviving media.  A readable manifest anchors
    per-shard expectations (short shard → [Torn], catalogued-but-missing
    device → torn placeholder so the next fetch rebuilds the site); an
    unreadable manifest is rebuilt from the shard scans.  The manifest is
    rewritten to match what actually survived. *)

val shard_status : t -> site:string -> bucket:int -> status option

type shard_info = {
  name : string;
  site : string;
  bucket : int;
  records : int;
  stranded : int;
  status : status;
}

val shard_infos : t -> shard_info list

val pp : Format.formatter -> t -> unit
