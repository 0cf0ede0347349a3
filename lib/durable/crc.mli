(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    The checksum every WAL and snapshot record carries.  Detects all
    single-bit flips and all burst errors up to 32 bits — the fault
    injector's corruption repertoire.  Results are 32-bit values in a
    native int.  Computed slicing-by-8, at any alignment; every result
    equals the byte-at-a-time definition.  Every function extends a
    running checksum (start from 0), so chunked calls equal one call over
    the concatenation. *)

val string : string -> int

val update : int -> string -> pos:int -> len:int -> int
(** Extend a running checksum over a substring.
    @raise Invalid_argument when [pos]/[len] leave the string. *)

val update_u8 : int -> int -> int
val update_u32 : int -> int -> int

val update_u64 : int -> int -> int
(** Little-endian integers, fed from ints; a u64 is the int's low 63 bits
    with bit 63 clear. *)

val update_chained : int -> prev:int -> chain:int -> string -> pos:int -> len:int -> int
(** [update_chained crc ~prev ~chain s ~pos ~len] is [update crc s ~pos ~len],
    with bit 32 set unless [chain = Chain.step prev (String.sub s pos len)],
    computed in one pass over the bytes.
    @raise Invalid_argument when [pos]/[len] leave the string. *)
