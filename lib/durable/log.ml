(* The durable pair a store sits on: one WAL device and one snapshot
   device, with the open-or-recover and checkpoint protocols in one place
   so every caller (audit store, quarantine) crashes into the same
   well-tested states.

   Checkpoint protocol — the ordering is the whole point:

     1. write the full image to the snapshot device and sync it;
     2. only then reformat the WAL at base_lsn = snapshot LSN.

   A crash after (1) but before (2) leaves a WAL whose base precedes the
   snapshot; recovery skips the overlap.  A crash during (2) leaves a
   truncated or header-less WAL; recovery falls back to the snapshot.
   Either way no verified record is lost and none is duplicated.

   The store that takes the log hands it its image once ([attach]): the
   full state the WAL covers, as snapshot payloads.  A manual [checkpoint]
   and a policy-triggered one both write that image, so they write the
   same bytes by construction.

   Background checkpointing: a size policy makes the log compact itself
   during [append] once the WAL exceeds its thresholds.  The trigger is
   evaluated BEFORE the new payload is appended: callers log first and
   update memory after (write-ahead), so at trigger time the image sees
   exactly the state the WAL covers.  Checkpointing after the append would
   snapshot a memory state that lacks the record just logged, and the
   truncation would silently drop it. *)

type checkpoint_policy = {
  max_records : int option;
  max_bytes : int option;
}

let checkpoint_every ?records ?bytes () = { max_records = records; max_bytes = bytes }

type t = {
  wal_device : Device.t;
  snapshot_device : Device.t;
  mutable wal : Wal.t option; (* Some once opened/recovered *)
  mutable image : (unit -> string list) option; (* Some once a store attached *)
  mutable auto : checkpoint_policy option;
  mutable wal_payload_bytes : int; (* payload bytes appended since the last checkpoint *)
  mutable auto_checkpoints : int;
  (* Re-applied whenever the Wal.t is replaced (recovery, checkpoint). *)
  mutable group_commit : bool;
}

let of_devices ~wal ~snapshot =
  { wal_device = wal;
    snapshot_device = snapshot;
    wal = None;
    image = None;
    auto = None;
    wal_payload_bytes = 0;
    auto_checkpoints = 0;
    group_commit = false;
  }

let create ?(seed = 0) () =
  of_devices ~wal:(Device.create ~seed ()) ~snapshot:(Device.create ~seed:(seed + 1) ())

let wal_device t = t.wal_device
let snapshot_device t = t.snapshot_device

let open_or_recover t =
  let r = Recovery.run ~wal:t.wal_device ~snapshot:t.snapshot_device () in
  let wal =
    if r.Recovery.wal_ok then
      Wal.reopen t.wal_device ~base_lsn:r.Recovery.wal_base_lsn
        ~entries:r.Recovery.wal_records ~verified_bytes:r.Recovery.wal_verified_bytes
        ~chain:r.Recovery.chain_head ~ends_sealed:r.Recovery.wal_ends_sealed
    else
      Wal.format t.wal_device ~base_lsn:r.Recovery.next_lsn
        ~base_chain:r.Recovery.chain_head ()
  in
  (* Framed bytes, so slightly above the payload sum — the policy trigger
     only needs the right order of magnitude. *)
  t.wal_payload_bytes <- (if r.Recovery.wal_ok then r.Recovery.wal_verified_bytes else 0);
  Wal.set_group_commit wal t.group_commit;
  t.wal <- Some wal;
  r

(* How every store reads its log back: a verified payload that decodes is
   applied, one that does not is counted — it passed its CRC and the
   chain, so it is unknown to this codec, never taken for another record. *)
let replay t ~decode ~apply =
  let report = open_or_recover t in
  let undecodable =
    List.fold_left
      (fun bad payload ->
        match decode payload with
        | Some record ->
          apply record;
          bad
        | None -> bad + 1)
      0 report.Recovery.entries
  in
  (report, undecodable)

let wal t =
  match t.wal with
  | Some w -> w
  | None ->
    (* First touch of a log nobody recovered explicitly: run the protocol
       and discard the (necessarily clean-or-reported) report. *)
    ignore (open_or_recover t);
    Option.get t.wal

let sync t = Wal.sync (wal t)

let next_lsn t = Wal.next_lsn (wal t)

let chain_head t = Wal.chain_head (wal t)

let attach t ~image = t.image <- Some image

let checkpoint t =
  let entries =
    match t.image with
    | Some image -> image ()
    | None -> invalid_arg "Durable.Log.checkpoint: no store attached"
  in
  let w = wal t in
  (* Everything the snapshot will claim must be durable first. *)
  Wal.sync w;
  let lsn = Wal.next_lsn w in
  let chain = Wal.chain_head w in
  (* The snapshot seals the chain head; the fresh WAL links from it, so
     the chain is continuous across the truncation. *)
  Snapshot.write t.snapshot_device ~lsn ~chain ~entries;
  let fresh = Wal.format t.wal_device ~base_lsn:lsn ~base_chain:chain () in
  Wal.set_group_commit fresh t.group_commit;
  t.wal <- Some fresh;
  t.wal_payload_bytes <- 0

let set_group_commit t on =
  t.group_commit <- on;
  match t.wal with Some w -> Wal.set_group_commit w on | None -> ()

let group_commit t = t.group_commit

let pending_records t = match t.wal with Some w -> Wal.pending_records w | None -> 0

let set_auto_checkpoint t policy =
  if Option.is_some policy && Option.is_none t.image then
    invalid_arg "Durable.Log.set_auto_checkpoint: no store attached";
  t.auto <- policy

let auto_checkpoints t = t.auto_checkpoints

let over_policy policy ~records ~bytes =
  (match policy.max_records with Some n -> records >= n | None -> false)
  || (match policy.max_bytes with Some n -> bytes >= n | None -> false)

let append t payload =
  let w = wal t in
  (match t.auto with
  | Some policy
    when over_policy policy
           ~records:(Wal.next_lsn w - Wal.base_lsn w)
           ~bytes:t.wal_payload_bytes ->
    checkpoint t;
    t.auto_checkpoints <- t.auto_checkpoints + 1
  | _ -> ());
  t.wal_payload_bytes <- t.wal_payload_bytes + String.length payload;
  (* [checkpoint] replaced the Wal.t — re-fetch. *)
  Wal.append (wal t) payload
