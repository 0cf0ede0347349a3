(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the checksum
   every WAL and snapshot record carries.  Detects all single-bit flips and
   all burst errors up to 32 bits, which covers the fault injector's
   corruption repertoire.

   Slicing-by-8: table k (of eight, back to back) maps a byte to its
   contribution followed by k zero bytes, so one step takes an 8-byte word
   as two unaligned LE reads and eight independent lookups.  Reads are
   unchecked; every entry point checks its range once.  [c] is the raw
   register: the value without its pre/post inversion. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to (8 * 256) - 1 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] u32 s i =
  let w = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFF_FFFF

let[@inline] get k i = Array.unsafe_get table ((k * 256) + i)
let[@inline] byte c b = get 0 ((c lxor b) land 0xFF) lxor (c lsr 8)

let[@inline] word c lo hi =
  let x = c lxor lo in
  get 7 (x land 0xFF) lxor get 6 ((x lsr 8) land 0xFF) lxor get 5 ((x lsr 16) land 0xFF)
  lxor get 4 (x lsr 24) lxor get 3 (hi land 0xFF) lxor get 2 ((hi lsr 8) land 0xFF)
  lxor get 1 ((hi lsr 16) land 0xFF) lxor get 0 (hi lsr 24)

let check s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc: range out of bounds"

let update crc s ~pos ~len =
  check s ~pos ~len;
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i <= pos + len - 8 do
    c := word !c (u32 s !i) (u32 s (!i + 4));
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := byte !c (Char.code (String.unsafe_get s j))
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s ~pos:0 ~len:(String.length s)

(* A frame header, fed from ints; a u64 as [Frame.put_u64] writes it. *)
let update_u8 crc n = byte (crc lxor 0xFFFFFFFF) n lxor 0xFFFFFFFF

let update_u32 crc n =
  let c = crc lxor 0xFFFFFFFF in
  byte (byte (byte (byte c n) (n lsr 8)) (n lsr 16)) (n lsr 24) lxor 0xFFFFFFFF

let update_u64 crc n = word (crc lxor 0xFFFFFFFF) (n land 0xFFFF_FFFF) (n lsr 32) lxor 0xFFFFFFFF

(* One pass over a payload for both integrity values of its data frame:
   the CRC and [Chain.step prev].  Both take 8-byte LE words from the
   first byte; the chain's word is the LE word's low 63 bits
   ([Int64.to_int]), which [lo lor (hi lsl 32)] reproduces, and the
   zero-padded tail and the length are mixed last.  Xor and multiply mod
   2^62 depend only on their operands' low 62 bits, so the chain is
   masked once at the end, and [chain_prime] is Chain's multiplier as a
   literal the compiler can fold; the test suite checks the kernel
   against [Chain.step].  Whether the chain matches comes back as bit 32
   above the CRC, not as a pair, so the replay loop allocates nothing. *)
let chain_prime = 0x100000001b3

let update_chained crc ~prev ~chain s ~pos ~len =
  check s ~pos ~len;
  let c = ref (crc lxor 0xFFFFFFFF) in
  let h = ref ((Chain.zero lxor prev) * chain_prime) in
  let i = ref pos in
  while !i <= pos + len - 8 do
    let lo = u32 s !i and hi = u32 s (!i + 4) in
    c := word !c lo hi;
    h := (!h lxor (lo lor (hi lsl 32))) * chain_prime;
    i := !i + 8
  done;
  let tail = ref 0 in
  for j = !i to pos + len - 1 do
    let b = Char.code (String.unsafe_get s j) in
    c := byte !c b;
    tail := !tail lor (b lsl (8 * (j - !i)))
  done;
  let h = (((!h lxor !tail) * chain_prime) lxor len) * chain_prime land ((1 lsl 62) - 1) in
  (!c lxor 0xFFFFFFFF) lor (if h = chain then 0 else 1 lsl 32)
