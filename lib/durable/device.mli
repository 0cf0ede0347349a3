(** A simulated storage device with injected crash points.

    Separates what a real disk separates: bytes written by the application
    ({!append}, into a volatile page cache) versus bytes on stable media
    ({!sync}).  {!crash} discards the volatile tail except for the damage
    its crash point leaves behind, driving recovery code through every
    state a power cut produces.  Damage decisions draw from a SplitMix
    stream seeded at {!create}, so crash schedules replay bit-for-bit. *)

type crash_point =
  | Clean_loss  (** the whole unsynced tail vanishes *)
  | Torn_tail  (** an arbitrary prefix of the unsynced bytes survives *)
  | Partial_header  (** the cut lands inside one record's header *)
  | Bit_flip  (** the unsynced tail survives, but one bit of it flipped *)
  | Truncated_sync  (** a truncation crashed mid-fsync: stable bytes lost *)

val all_crash_points : crash_point list
val crash_point_to_string : crash_point -> string

val crash_point_of_string : string -> crash_point option
(** Inverse of {!crash_point_to_string} — serialized chaos schedules
    round-trip through these names. *)

type t

val create : ?seed:int -> unit -> t
val of_string : ?seed:int -> string -> t
(** A device whose stable image is the given bytes (e.g. a loaded file). *)

val durable_size : t -> int
val unsynced : t -> int
val syncs : t -> int
val crashes : t -> int

val contents : t -> string
(** The stable image — what recovery after a crash gets to read. *)

val append : t -> string -> unit
(** Write into the page cache.  Each call is one write boundary, which
    [Partial_header] uses to cut inside a record header specifically. *)

val write_buffer : t -> Buffer.t
(** Open one write boundary and return the page cache to write it into:
    the bytes added before the next write (or sync, or crash) are one
    write, exactly as if they had been passed to {!append} together.
    Lets a caller frame a record straight into the cache. *)

val sync : t -> unit
(** fsync: move the volatile tail onto stable media. *)

val truncate : t -> int -> unit
(** Cut the stable image to [n] bytes, discarding the volatile tail (only
    issued by checkpointing code that already synced what it keeps). *)

val crash : t -> point:crash_point -> unit
(** Lose the volatile tail, minus the crash point's survivors. *)

val corrupt_stable : t -> pos:int -> bit:int -> unit
(** The tampering fault: flip bit [bit] of stable byte [pos] — damage in
    the region {!crash} can never touch.
    @raise Invalid_argument when [pos] is not durable or [bit] not 0–7. *)

val save : t -> string -> unit
(** Write the stable image to a real file. *)

val load : ?seed:int -> string -> t
(** Load a real file as the stable image of a fresh device. *)
