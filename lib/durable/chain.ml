(* The hash chain that makes the WAL tamper-evident.

   Every data frame carries [step prev payload]: an FNV-1a-style hash over
   the previous chain head (8 bytes LE) followed by the payload bytes, so
   the value at position [k] commits to the entire record history up to
   [k].  Flipping any bit of any earlier record — payload or header —
   changes every subsequent chain value, which is what lets recovery
   distinguish an interior mutation from a benign torn tail.

   Values are masked to 62 bits: they stay positive in a native OCaml int
   on 64-bit platforms and round-trip through the u64 header field
   unchanged.  This is an integrity check against accidental or casual
   tampering, matching the CRC threat model of the framing layer — not a
   cryptographic MAC; an adversary who can rewrite the whole suffix can
   recompute chains too.  What it guarantees is that no *prefix-preserving*
   mutation survives verification. *)

let mask = (1 lsl 62) - 1

(* FNV-1a 64-bit offset basis (pre-masked to 62 bits) and prime.  The
   fused CRC + chain kernel (Crc.update_chained) repeats [mix] inline; the
   test suite checks it against [step]. *)
let basis = 0x0bf29ce484222325
let prime = 0x100000001b3

let zero = basis

(* One mix step over a 64-bit word.  x -> (x lxor w) * prime mod 2^62 is
   injective in each argument (prime is odd, hence invertible mod 2^62),
   so a single flipped bit anywhere in one word yields a different value
   at that step and every step after it. *)
let mix h word = (h lxor word) * prime land mask

(* Word-at-a-time fold: 8-byte little-endian words, then the zero-padded
   tail, then the length — mixing the length keeps "a" and "a\000"
   distinct despite the padding.  One multiply per word instead of one
   per byte keeps chain verification close to the cost of the CRC scan
   it rides on (the E12 bench gates the overhead at 15%). *)
let fold_string h s =
  let n = String.length s in
  let h = ref h in
  let i = ref 0 in
  while !i + 8 <= n do
    (* Int64.to_int wraps mod 2^63; fine, every mix masks back to 62 bits *)
    h := mix !h (Int64.to_int (String.get_int64_le s !i));
    i := !i + 8
  done;
  let tail = ref 0 in
  let shift = ref 0 in
  while !i < n do
    tail := !tail lor (Char.code (String.unsafe_get s !i) lsl !shift);
    shift := !shift + 8;
    incr i
  done;
  mix (mix !h !tail) n

let step prev payload = fold_string (mix basis prev) payload

(* A standalone hash of one string (no chaining): the per-record integrity
   hash of the provenance extension uses this. *)
let hash_string s = fold_string basis s

let to_hex n = Printf.sprintf "%016x" n

let of_hex s =
  if String.length s <> 16 then None
  else
    let rec go i acc =
      if i = 16 then Some (acc land mask)
      else
        match s.[i] with
        | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - Char.code '0'))
        | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - Char.code 'a' + 10))
        | _ -> None
    in
    go 0 0
