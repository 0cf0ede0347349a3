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

val put_string : Buffer.t -> string -> unit
(** A u32 LE length, then the bytes. *)

val put_pairs : Buffer.t -> (string * string) list -> unit
(** A u32 LE count, then each key and value as by {!put_string}. *)

(** {1 Reading a payload}

    The bounded reader the stores' payload codecs decode with.  Each read
    consumes its field and returns [None] when the field would pass the
    end of the payload; {!finish} accepts only a payload read to its last
    byte.  A decoder built from these never raises, and a payload either
    decodes whole or not at all. *)

type reader

val reader : string -> reader
(** A reader at the start of a payload. *)

val read_char : reader -> char option
val read_u32 : reader -> int option

val read_u64 : reader -> int option
(** [None] too when the value has bit 62 set (a negative int), which
    {!put_u64} writes only for a negative argument. *)

val read_string : reader -> string option
(** A field written by {!put_string}. *)

val read_pairs : reader -> (string * string) list option
(** A field written by {!put_pairs}. *)

val finish : reader -> 'a -> 'a option
(** [Some v] when the whole payload has been read, [None] otherwise. *)
