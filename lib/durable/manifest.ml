(* The shard manifest: a small checksummed catalogue of the shards a
   sharded store is made of, written atomically at every durability point:

     [magic "PMAN0001" : 8] [Frame]        -- exactly one Data frame

   The single frame's payload is the whole catalogue —

     [count : u32 LE]
     ([name] [lo : u64] [hi : u64] [records : u64] [chain : u64]) x count

   with [name] length-prefixed (u32 LE).  One frame means one CRC and one
   chain value cover every descriptor: a torn write, a truncated tail or a
   flipped bit anywhere invalidates the whole image, and the reader
   reports it as unreadable rather than serving a half-catalogue.  That is
   the intended failure mode — a sharded store that cannot read its
   manifest rebuilds the catalogue by scanning the shards themselves,
   which remain individually recoverable.

   The frame's chain field carries [Chain.hash_string payload]: redundant
   with the CRC against random damage, but it keeps the manifest under the
   same integrity discipline as every other durable image. *)

let magic = "PMAN0001"

type shard = {
  name : string; (* owning site (or any shard key rendered as a string) *)
  lo : int; (* lowest timestamp the shard covers (inclusive) *)
  hi : int; (* highest timestamp the shard covers (inclusive) *)
  records : int; (* records durable in the shard when the manifest was written *)
  chain : int; (* the shard WAL's hash-chain head at that point *)
}

type t = { shards : shard list }

let empty = { shards = [] }

let encode_payload t =
  let buffer = Buffer.create 256 in
  Frame.put_u32 buffer (List.length t.shards);
  List.iter
    (fun s ->
      Frame.put_string buffer s.name;
      Frame.put_u64 buffer s.lo;
      Frame.put_u64 buffer s.hi;
      Frame.put_u64 buffer s.records;
      Frame.put_u64 buffer s.chain)
    t.shards;
  Buffer.contents buffer

let encode t =
  let payload = encode_payload t in
  magic ^ Frame.encode ~chain:(Chain.hash_string payload) payload

let decode_payload payload =
  let ( let* ) = Option.bind in
  let r = Frame.reader payload in
  let rec shards acc k =
    if k = 0 then Frame.finish r { shards = List.rev acc }
    else
      let* name = Frame.read_string r in
      let* lo = Frame.read_u64 r in
      let* hi = Frame.read_u64 r in
      let* records = Frame.read_u64 r in
      let* chain = Frame.read_u64 r in
      shards ({ name; lo; hi; records; chain } :: acc) (k - 1)
  in
  let* count = Frame.read_u32 r in
  shards [] count

let decode image =
  if String.length image < String.length magic then Error "truncated manifest header"
  else if String.sub image 0 (String.length magic) <> magic then Error "bad manifest magic"
  else
    match Frame.scan image ~pos:(String.length magic) with
    | Frame.End -> Error "manifest missing its catalogue frame"
    | Frame.Bad why -> Error (Printf.sprintf "manifest frame invalid: %s" why)
    | Frame.Record { kind = Frame.Seal; _ } -> Error "seal frame in manifest"
    | Frame.Record { payload; chain; next; kind = Frame.Data } ->
      if next <> String.length image then Error "manifest has trailing bytes"
      else if chain <> Chain.hash_string payload then Error "manifest chain mismatch"
      else (
        match decode_payload payload with
        | Some t -> Ok t
        | None -> Error "manifest catalogue does not decode")

(* Replace the device's contents with a fresh image and sync it — the
   manifest is rewritten whole at every durability point, never appended. *)
let write device t =
  Device.truncate device 0;
  Device.append device (encode t);
  Device.sync device

(* [Ok None] on an empty device (no manifest written yet); [Error] when
   the image does not verify — the caller falls back to scanning shards. *)
let read device =
  let image = Device.contents device in
  if image = "" then Ok None
  else match decode image with Ok t -> Ok (Some t) | Error _ as e -> e

let find t name = List.find_opt (fun s -> String.equal s.name name) t.shards

let pp_shard ppf s =
  Fmt.pf ppf "%s [%d, %d] %d record(s) chain %s" s.name s.lo s.hi s.records
    (Chain.to_hex s.chain)

let pp ppf t =
  Fmt.pf ppf "manifest of %d shard(s):@." (List.length t.shards);
  List.iter (fun s -> Fmt.pf ppf "  %a@." pp_shard s) t.shards
