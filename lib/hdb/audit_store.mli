(** Storage-efficient audit log — the "minimal impact, storage and
    performance efficient logs" of HDB Compliance Auditing.

    Columnar layout: times in an int vector; user/data/purpose/authorized
    dictionary-encoded (audit logs repeat a small set of strings
    endlessly); op and status bit-packed.  {!naive_bytes} and
    {!encoded_bytes} feed the storage-efficiency experiment (E6). *)

type t

val create : unit -> t
val length : t -> int
val append : t -> Audit_schema.entry -> unit
(** Log (when a log is attached), then add to the columns.
    @raise Invalid_argument, before any state changes and with or without
    a log, on an entry {!Audit_schema.to_wire} cannot encode. *)

val get : t -> int -> Audit_schema.entry
(** @raise Invalid_argument when out of bounds. *)

val iter : (Audit_schema.entry -> unit) -> t -> unit
val fold : ('acc -> Audit_schema.entry -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Audit_schema.entry list
val append_all : t -> Audit_schema.entry list -> unit
val of_entries : Audit_schema.entry list -> t

(** {2 Durability}

    A store may sit on a {!Durable.Log.t}: every {!append} is then framed
    into the write-ahead log {e before} the columns are touched, so the
    recovered WAL prefix is always a prefix of what the store held.
    Appends are durable once {!sync}ed; {!checkpoint} compacts the log
    into a snapshot image. *)

val log : t -> Durable.Log.t option

val lsn : t -> int
(** LSN the next append will receive ([base + length]); equals {!length}
    for a store with no log. *)

val sync : t -> unit
(** fsync the attached log (no-op without one). *)

val checkpoint : t -> unit
(** Write the whole store as a snapshot image and truncate the WAL. *)

val enable_auto_checkpoint : ?policy:Durable.Log.checkpoint_policy -> t -> unit
(** Register a background-compaction policy (default: every 1024 WAL
    records) on the attached log; no-op without one.  The log then
    checkpoints itself mid-append once over a threshold — safe because
    appends are write-ahead, so the image taken at trigger time is exactly
    the state the WAL covers. *)

val restore : t -> Durable.Log.t -> Durable.Recovery.t * int
(** Open-or-recover [log], replay the verified entries into [t] (assumed
    fresh), attach the log, and return the recovery report plus the count
    of payloads that no longer decode (0 unless the codec changed). *)

val open_durable : Durable.Log.t -> t * Durable.Recovery.t * int
(** [create] + {!restore}. *)

val naive_bytes : t -> int
(** Estimated size of the flat row-store equivalent (strings inline). *)

val encoded_bytes : t -> int
(** Estimated size of this encoded representation (id vectors + packed
    bits + dictionaries). *)

val to_table : t -> database:Relational.Database.t -> table_name:string -> Relational.Table.t
(** Exports into a relational table (truncating any previous export), for
    SQL analysis over the log. *)
