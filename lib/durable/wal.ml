(* The write-ahead log: an append-only sequence of framed records behind a
   fixed header.

     [magic "PWAL0002" : 8 bytes] [base_lsn : u64 LE] [base_chain : u64 LE]
     [Frame]*

   LSNs are global record indexes: the record at LSN [l] is the [l]-th
   entry ever appended to the logical log, across snapshot truncations.
   [base_lsn] is the LSN of this file's first record — 0 for a virgin log,
   the snapshot's LSN after a checkpoint truncated the file.  [base_chain]
   is the hash-chain head the file's first record links from (Chain.zero
   for a virgin log, the snapshot's sealed head after a checkpoint), so a
   truncated WAL still anchors its chain to the full logical history.

   Appends go to the device's page cache; [sync] is the fsync point.  A
   record is durable only once synced — the crash-point suite is built on
   exactly that boundary.

   Tamper evidence: every data record carries its chain value, and every
   [sync] that flushed unsealed data appends a SEAL frame — a marker whose
   payload repeats the chain head and the next LSN.  Seals only ever reach
   stable media through a completed sync, which is what lets recovery tell
   a benign torn tail (damage with no valid seal after it) from interior
   tampering (damage *followed by* a seal we durably wrote). *)

let magic = "PWAL0002"

let header_size = String.length magic + 8 + 8

let header_bytes ~base_lsn ~base_chain =
  let buffer = Buffer.create header_size in
  Buffer.add_string buffer magic;
  Frame.put_u64 buffer base_lsn;
  Frame.put_u64 buffer base_chain;
  Buffer.contents buffer

(* Parse the header of a stable image.  [Ok (base_lsn, base_chain)] or why
   not. *)
let read_header image =
  if String.length image < header_size then Error "missing or truncated WAL header"
  else if String.sub image 0 (String.length magic) <> magic then Error "bad WAL magic"
  else begin
    (* [Frame.get_u64] folds 64 stored bits into a 63-bit OCaml int, so a
       set bit 63 would vanish silently — and both fields are < 2^62 by
       construction (the chain is 62-bit-masked, the LSN a record count).
       Reject a top byte with either high bit set instead of dropping it:
       the header has no CRC of its own, so this plausibility check is
       what turns a high-bit flip into detectable damage. *)
    let implausible pos = Char.code image.[pos + 7] land 0xc0 <> 0 in
    let lsn_pos = String.length magic in
    if implausible lsn_pos then Error "implausible WAL base LSN"
    else if implausible (lsn_pos + 8) then Error "implausible WAL base chain"
    else Ok (Frame.get_u64 image lsn_pos, Frame.get_u64 image (lsn_pos + 8))
  end

(* Seal payload: [magic "PSEAL001" : 8] [chain : u64 LE] [lsn : u64 LE].
   The magic is what recovery's resync scan greps the damaged suffix for. *)

let seal_magic = "PSEAL001"

let seal_payload_size = String.length seal_magic + 8 + 8

let seal_payload ~chain ~lsn =
  let buffer = Buffer.create seal_payload_size in
  Buffer.add_string buffer seal_magic;
  Frame.put_u64 buffer chain;
  Frame.put_u64 buffer lsn;
  Buffer.contents buffer

let read_seal_payload payload =
  if String.length payload <> seal_payload_size then None
  else if String.sub payload 0 (String.length seal_magic) <> seal_magic then None
  else
    Some
      ( Frame.get_u64 payload (String.length seal_magic),
        Frame.get_u64 payload (String.length seal_magic + 8) )

type t = {
  device : Device.t;
  base_lsn : int;
  mutable next_lsn : int;
  mutable chain : int; (* running hash-chain head over data records *)
  mutable unsealed : bool; (* data appended since the last seal frame *)
  (* Group commit: framed records accumulate here (user space, not even in
     the page cache) and reach the device as ONE write at the next [sync] —
     the batching a real WAL does to amortise the write syscall.  A crash
     loses the pending batch entirely, which is strictly safer than losing
     an arbitrary suffix of per-record writes: unsynced records carried no
     durability promise either way, and the stable prefix is untouched. *)
  mutable group_commit : bool;
  pending : Buffer.t;
  mutable pending_records : int;
}

(* Initialise (or re-initialise after a checkpoint) the device as an empty
   log starting at [base_lsn] under chain head [base_chain].  The header is
   synced immediately: an unreadable header is indistinguishable from data
   loss, so it is never left in the page cache. *)
let format device ~base_lsn ?(base_chain = Chain.zero) () =
  Device.truncate device 0;
  Device.append device (header_bytes ~base_lsn ~base_chain);
  Device.sync device;
  { device;
    base_lsn;
    next_lsn = base_lsn;
    chain = base_chain;
    unsealed = false;
    group_commit = false;
    pending = Buffer.create 256;
    pending_records = 0;
  }

let add_seal t =
  Frame.add (Device.write_buffer t.device) ~kind:Frame.Seal ~chain:t.chain
    (seal_payload ~chain:t.chain ~lsn:t.next_lsn)

(* Adopt a device whose image recovery has already verified: the stable
   image is cut back to the verified prefix ([verified_bytes]) so the
   unverifiable tail can never resurface, and appends continue at the next
   LSN under chain head [chain].  A prefix that does not end in a seal
   (the crash hit after data records synced but before/without their seal)
   is resealed immediately, so the durable image always ends sealed and a
   later mutation of any adopted record is classified as tampering, not a
   torn tail. *)
let reopen device ~base_lsn ~entries ~verified_bytes ~chain ~ends_sealed =
  Device.truncate device verified_bytes;
  let t =
    { device;
      base_lsn;
      next_lsn = base_lsn + entries;
      chain;
      unsealed = not ends_sealed;
      group_commit = false;
      pending = Buffer.create 256;
      pending_records = 0;
    }
  in
  if t.unsealed then begin
    add_seal t;
    Device.sync device;
    t.unsealed <- false
  end;
  t

let device t = t.device
let base_lsn t = t.base_lsn
let next_lsn t = t.next_lsn
let chain_head t = t.chain

let flush_pending t =
  if Buffer.length t.pending > 0 then begin
    Buffer.add_buffer (Device.write_buffer t.device) t.pending;
    Buffer.clear t.pending;
    t.pending_records <- 0
  end

let set_group_commit t on =
  if not on then flush_pending t;
  t.group_commit <- on

let group_commit t = t.group_commit
let pending_records t = t.pending_records

(* One record, one write boundary, framed straight into the page cache
   (or the pending batch).  The chain is folded before the CRC pass: the
   CRC covers the header's chain field, which precedes the payload. *)
let append t payload =
  Frame.check_size payload;
  let lsn = t.next_lsn in
  let chain = Chain.step t.chain payload in
  let buffer =
    if t.group_commit then begin
      t.pending_records <- t.pending_records + 1;
      t.pending
    end
    else Device.write_buffer t.device
  in
  Frame.add buffer ~chain payload;
  t.chain <- chain;
  t.unsealed <- true;
  t.next_lsn <- lsn + 1;
  lsn

let sync t =
  flush_pending t;
  if t.unsealed then begin
    add_seal t;
    t.unsealed <- false
  end;
  Device.sync t.device

(* The frame layout of a stable image: (offset, total length, kind) for
   every frame of the verified prefix, in order.  Test and chaos code uses
   this to aim a tampering fault at a specific accepted data record. *)
let frame_spans image =
  match read_header image with
  | Error _ -> []
  | Ok _ ->
    let rec go acc pos =
      match Frame.scan image ~pos with
      | Frame.Record { kind; next; _ } -> go ((pos, next - pos, kind) :: acc) next
      | Frame.End | Frame.Bad _ -> List.rev acc
    in
    go [] header_size
