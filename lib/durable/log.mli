(** The durable pair a store sits on: one WAL device and one snapshot
    device, with the open-or-recover and checkpoint protocols in one
    place.

    The store that takes the log hands it its snapshot image once
    ({!attach}); every checkpoint, manual or policy-triggered, writes that
    image.

    Checkpoint ordering: the snapshot image is written and synced {e
    before} the WAL is reformatted, so a crash anywhere in between loses
    no verified record and duplicates none (recovery skips the overlap). *)

type t

val create : ?seed:int -> unit -> t
(** A fresh in-memory pair; [seed] feeds the devices' crash-damage PRNGs. *)

val of_devices : wal:Device.t -> snapshot:Device.t -> t
(** Wrap existing devices — e.g. the surviving media of a "crashed"
    process, or images loaded from real files. *)

val wal_device : t -> Device.t
val snapshot_device : t -> Device.t

val open_or_recover : t -> Recovery.t
(** Run recovery over both devices, adopt the verified WAL prefix (or
    format a fresh WAL when the file is virgin or unusable), and return
    the report. *)

val replay : t -> decode:(string -> 'a option) -> apply:('a -> unit) -> Recovery.t * int
(** {!open_or_recover}, then [apply] every verified payload that [decode]
    accepts, in log order.  Returns the report and the count of payloads
    [decode] refused: they passed their checksums, so a non-zero count
    means a codec mismatch, and the store's contents are a lower bound. *)

val attach : t -> image:(unit -> string list) -> unit
(** The store taking this log gives it its snapshot image: [image ()]
    must return the full state the WAL currently covers, as snapshot
    payloads — for a write-ahead store, its in-memory contents at call
    time.  A later [attach] replaces the image. *)

val append : t -> string -> int
(** Append one record, returning its LSN; opens the log first if nobody
    did.  Not durable until {!sync}.  With an auto-checkpoint policy set,
    the log may compact itself first — the trigger is checked {e before}
    the new record is written, so the image sees exactly the state the
    WAL covers (callers log first, then update memory). *)

val sync : t -> unit
val next_lsn : t -> int

val chain_head : t -> int
(** The running hash-chain head of the logical log (see {!Chain}). *)

val set_group_commit : t -> bool -> unit
(** Group-commit batching: appends accumulate in a user-space batch and
    reach the device as one write at the next {!sync} (or {!checkpoint},
    which syncs first).  Survives WAL replacement on recovery and
    checkpoint.  A crash loses the pending batch entirely — within the
    existing contract (unsynced records carry no durability promise), and
    the verified-prefix recovery guarantee is unchanged.  Turning it off
    flushes the batch into the page cache. *)

val group_commit : t -> bool

val pending_records : t -> int
(** Records waiting in the group-commit batch (0 with it off). *)

val checkpoint : t -> unit
(** Sync, write the attached image as the new snapshot, then truncate the
    WAL to empty at the snapshot's LSN.
    @raise Invalid_argument when no store has {!attach}ed the log. *)

(** {1 Background checkpointing} *)

type checkpoint_policy = {
  max_records : int option;  (** checkpoint once the WAL holds this many records *)
  max_bytes : int option;  (** … or roughly this many bytes *)
}

val checkpoint_every : ?records:int -> ?bytes:int -> unit -> checkpoint_policy

val set_auto_checkpoint : t -> checkpoint_policy option -> unit
(** [Some policy]: when an {!append} finds the WAL over a threshold, the
    log checkpoints itself before admitting the new record.  [None] turns
    that off.
    @raise Invalid_argument on [Some _] when no store has {!attach}ed the
    log. *)

val auto_checkpoints : t -> int
(** How many policy-triggered checkpoints have fired on this log. *)
