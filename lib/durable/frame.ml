(* Length-prefixed, checksummed, hash-chained record framing shared by the
   WAL and the snapshot image:

     [length : u32 LE] [crc32 : u32 LE] [kind : u8] [chain : u64 LE] [payload]

   The CRC covers the length bytes, the kind byte, the chain bytes *and*
   the payload, so a flipped length field fails verification even when the
   corrupted length happens to stay in bounds — and so does a flipped kind
   or chain field.

   [chain] is the hash-chain value of this record ([Chain.step] of the
   previous head and the payload for data records; the current head for
   seal records) — the scanner surfaces it and recovery re-derives the
   expected value, which is how interior mutations are caught even when a
   record's own CRC still verifies.

   [scan] distinguishes a clean end of log from a tail that cannot be
   verified — the distinction recovery reports.

   The payload fields every store's codec writes and reads live here too:
   little-endian integers, u32-prefixed strings and pairs, and the one
   bounded reader. *)

let header_size = 4 + 4 + 1 + 8

(* Generous but bounded: a corrupted length field must not convince the
   scanner to allocate gigabytes. *)
let max_payload = 1 lsl 28

let put_u32 buffer n = Buffer.add_int32_le buffer (Int32.of_int n)

let get_u32 s pos =
  let byte i = Char.code s.[pos + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

(* The low 63 bits, bit 63 clear: what [get_u64] reads back. *)
let put_u64 buffer n = Buffer.add_int64_le buffer (Int64.logand (Int64.of_int n) Int64.max_int)

let get_u64 s pos =
  let n = ref 0 in
  for i = 7 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + i]
  done;
  !n

(* Payload fields: a u32-prefixed string, and a u32 count of key/value
   string pairs. *)
let put_string buffer s =
  put_u32 buffer (String.length s);
  Buffer.add_string buffer s

let put_pairs buffer pairs =
  put_u32 buffer (List.length pairs);
  List.iter
    (fun (k, v) ->
      put_string buffer k;
      put_string buffer v)
    pairs

(* The one reader every payload codec decodes with.  A read that would
   pass the end returns [None] and a payload is accepted only when read to
   its last byte, so a decoder built from these reads never raises and
   never returns a record from part of a payload. *)
type reader = {
  payload : string;
  mutable pos : int;
}

let reader payload = { payload; pos = 0 }

(* Where [n] bytes start, consumed; -1 when fewer remain. *)
let take r n =
  if n > String.length r.payload - r.pos then -1
  else begin
    let at = r.pos in
    r.pos <- at + n;
    at
  end

let read_char r =
  let at = take r 1 in
  if at < 0 then None else Some r.payload.[at]

let read_u32 r =
  let at = take r 4 in
  if at < 0 then None else Some (get_u32 r.payload at)

(* A u64 with bit 62 set reads back as a negative int — what [put_u64]
   writes for one — and is refused: no payload field read as a u64 (a
   sequence number, a shard bound or count, a chain head) is negative. *)
let read_u64 r =
  let at = take r 8 in
  if at < 0 then None
  else
    let v = get_u64 r.payload at in
    if v < 0 then None else Some v

let read_string r =
  match read_u32 r with
  | None -> None
  | Some len ->
    let at = take r len in
    if at < 0 then None else Some (String.sub r.payload at len)

let read_pairs r =
  let rec go acc k =
    if k = 0 then Some (List.rev acc)
    else
      match read_string r with
      | None -> None
      | Some key -> (
        match read_string r with None -> None | Some v -> go ((key, v) :: acc) (k - 1))
  in
  match read_u32 r with None -> None | Some n -> go [] n

let finish r v = if r.pos = String.length r.payload then Some v else None

type kind =
  | Data (* a logical record; advances the LSN and the chain *)
  | Seal (* a sync marker carrying the chain head; advances neither *)

let kind_byte = function Data -> 0 | Seal -> 1

let check_size payload =
  if String.length payload > max_payload then invalid_arg "Frame.add: payload too large"

let add buffer ?(kind = Data) ~chain payload =
  check_size payload;
  let len = String.length payload in
  let kind = kind_byte kind in
  let crc = Crc.update_u64 (Crc.update_u8 (Crc.update_u32 0 len) kind) chain in
  put_u32 buffer len;
  put_u32 buffer (Crc.update crc payload ~pos:0 ~len);
  Buffer.add_char buffer (Char.chr kind);
  put_u64 buffer chain;
  Buffer.add_string buffer payload

let encode ?(kind = Data) ~chain payload =
  let buffer = Buffer.create (header_size + String.length payload) in
  add buffer ~kind ~chain payload;
  Buffer.contents buffer

type scan_result =
  | Record of { payload : string; kind : kind; chain : int; next : int }
  | End (* exactly at the end of the image: a clean boundary *)
  | Bad of string (* the remaining tail cannot be verified *)

(* [chained]: a data record's chain is recomputed from [prev] in the same
   pass as its CRC ({!Crc.update_chained}) and must equal the stored one.
   The header is fed to the CRC from the image bytes, not from the decoded
   ints: [get_u64] drops bit 63, which must still fail the CRC. *)
let scan_from ~chained ~prev image ~pos =
  let n = String.length image in
  if pos = n then End
  else if pos + header_size > n then Bad "truncated record header"
  else begin
    let len = get_u32 image pos in
    if len > max_payload then Bad "implausible record length"
    else if pos + header_size + len > n then Bad "record extends past end of log"
    else begin
      let stored = get_u32 image (pos + 4) in
      let chain = get_u64 image (pos + 9) in
      let crc = Crc.update (Crc.update 0 image ~pos ~len:4) image ~pos:(pos + 8) ~len:9 in
      let payload_pos = pos + header_size in
      let crc =
        if chained && image.[pos + 8] = '\000' then
          Crc.update_chained crc ~prev ~chain image ~pos:payload_pos ~len
        else Crc.update crc image ~pos:payload_pos ~len
      in
      if stored <> crc land 0xFFFFFFFF then Bad "record checksum mismatch"
      else begin
        let kind =
          match image.[pos + 8] with
          | '\000' -> Some Data
          | '\001' -> Some Seal
          | _ -> None
        in
        match kind with
        | None -> Bad "unknown record kind"
        | Some _ when crc <> stored -> Bad "record breaks the hash chain"
        | Some kind ->
          let payload = String.sub image payload_pos len in
          Record { payload; kind; chain; next = payload_pos + len }
      end
    end
  end

let scan image ~pos = scan_from ~chained:false ~prev:0 image ~pos

let scan_chained image ~pos ~prev = scan_from ~chained:true ~prev image ~pos
