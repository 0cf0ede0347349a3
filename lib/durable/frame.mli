(** Length-prefixed, checksummed, hash-chained record framing shared by
    the WAL and the snapshot image:
    [[length : u32 LE] [crc32 : u32 LE] [kind : u8] [chain : u64 LE]
    [payload]].  The CRC covers the length bytes, the kind byte, the chain
    bytes and the payload, so a flipped length (or kind, or chain) field
    fails verification even when it stays in bounds.  [chain] is the
    record's hash-chain value — recovery re-derives the expected value to
    catch interior mutations. *)

val header_size : int
val max_payload : int

type kind =
  | Data  (** a logical record; advances the LSN and the chain *)
  | Seal  (** a sync marker carrying the chain head; advances neither *)

val add : Buffer.t -> ?kind:kind -> chain:int -> string -> unit
(** Append one framed record ([kind] defaults to [Data]): the header and
    the payload, with nothing allocated on the way.
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

val check_size : string -> unit
(** The check {!add} starts with, for callers that must fail before
    opening a device write.
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

val encode : ?kind:kind -> chain:int -> string -> string

type scan_result =
  | Record of { payload : string; kind : kind; chain : int; next : int }
  | End  (** exactly at the end of the image: a clean boundary *)
  | Bad of string  (** the remaining tail cannot be verified *)

val scan : string -> pos:int -> scan_result
(** Verify the record starting at [pos] of a stable image (CRC only). *)

val scan_chained : string -> pos:int -> prev:int -> scan_result
(** {!scan}, and a data record's chain must also equal [Chain.step prev
    payload] ([Bad "record breaks the hash chain"] otherwise), recomputed
    in the same pass over the payload as its CRC.  Seal records are
    checked as by {!scan}. *)

(** Little-endian integer plumbing, shared with the WAL/snapshot headers
    and the wire codecs of the stores built on top. *)

val put_u32 : Buffer.t -> int -> unit
val get_u32 : string -> int -> int
val put_u64 : Buffer.t -> int -> unit
val get_u64 : string -> int -> int
