(* Crash recovery: scan the stable images of a snapshot device and a WAL
   device, verify checksums AND hash-chain integrity, and stop at the
   first record that does not verify.  The contract (after Garg, Jia &
   Datta's evolving-audit-log enforcement): the recovered log is a
   *verified prefix* of what was appended — never reordered, never a
   corrupted record surfaced — and anything dropped is reported, so
   downstream coverage can be downgraded to a lower bound instead of
   silently passing off a truncated trail as the whole truth.

   Tamper classification.  Byte-for-byte, a crash-time bit flip and a
   malicious one are identical; what separates them is *where they can
   land*.  Crash damage only ever touches the unsynced tail (or truncates
   a suffix), and seal frames reach stable media exclusively through
   completed syncs — so a benign crash can never leave a valid seal AFTER
   the damage.  The classifier exploits exactly that:

     - scan stops at offset [p] (bad CRC, broken chain link, bad seal);
     - the remaining bytes are searched for any fully valid seal frame;
     - a valid seal at or after [p] proves the bytes at [p] were once
       durable and verified => [Tamper_detected { offset = p }];
     - no such seal => the damage is an unsynced tail => [Torn_tail].

   The chain gives the same verdict across the checkpoint boundary: the
   snapshot header carries the sealed chain head, and the WAL's chain at
   the snapshot's LSN must reproduce it.

   Snapshot/WAL reconciliation covers every state the checkpoint protocol
   can crash in:

   - WAL base = snapshot LSN: the steady state; entries are snapshot then
     WAL records.
   - WAL base < snapshot LSN: the crash hit between snapshot sync and WAL
     truncation; the WAL records the snapshot already covers are skipped
     (no duplication).
   - snapshot missing/invalid but WAL base 0: virgin log or rejected
     image; the WAL alone is the truth.
   - an LSN gap (WAL base past the snapshot, or a WAL that expects a
     snapshot which is gone): unreconstructable middle — the snapshot
     prefix is kept, the WAL is reported and reformatted. *)

type verdict =
  | Verified (* every image verified end-to-end *)
  | Torn_tail
    (* benign, crash-consistent damage: data was dropped or an image
       failed to verify, with no evidence of interior mutation *)
  | Tamper_detected of { offset : int }
    (* bytes at [offset] of the WAL image were durable and verified once,
       and do not verify now *)

let verdict_to_string = function
  | Verified -> "verified"
  | Torn_tail -> "torn-tail"
  | Tamper_detected { offset } -> Printf.sprintf "TAMPER at offset %d" offset

type t = {
  entries : string list; (* the verified logical log, in append order *)
  snapshot_lsn : int; (* 0 when no snapshot image contributed *)
  snapshot_entries : int;
  wal_entries : int; (* records the WAL contributed after overlap skip *)
  dropped_tail : int; (* unverifiable trailing WAL bytes discarded *)
  tail_error : string option; (* why the WAL scan stopped early *)
  snapshot_error : string option;
  next_lsn : int; (* where appends resume *)
  verdict : verdict;
  chain_head : int; (* hash-chain head over the recovered logical log *)
  (* reopen plumbing, consumed by Log *)
  wal_ok : bool; (* the WAL file itself is adoptable as-is *)
  wal_base_lsn : int;
  wal_records : int; (* records verified in the WAL file *)
  wal_verified_bytes : int;
  wal_ends_sealed : bool; (* the verified prefix ends in a seal (or is empty) *)
}

let clean t = t.dropped_tail = 0 && t.tail_error = None && t.snapshot_error = None

let dropped_tail t = t.dropped_tail > 0

let tampered t = match t.verdict with Tamper_detected _ -> true | _ -> false

(* Is there any fully valid seal frame starting at or after [pos]?  Benign
   crash damage can never be followed by one (seals only reach stable
   media through completed syncs), so a hit turns "the scan stopped at
   [pos]" into "the bytes at [pos] were mutated after they were synced". *)
let valid_seal_after image ~pos =
  let n = String.length image in
  let magic = Wal.seal_magic in
  let rec go from =
    if from >= n then false
    else
      match String.index_from_opt image from magic.[0] with
      | None -> false
      | Some i ->
        if i + String.length magic > n then false
        else if
          String.sub image i (String.length magic) = magic
          && i - Frame.header_size >= pos
        then begin
          match Frame.scan image ~pos:(i - Frame.header_size) with
          | Frame.Record { kind = Frame.Seal; payload; _ }
            when Wal.read_seal_payload payload <> None ->
            true
          | _ -> go (i + 1)
        end
        else go (i + 1)
  in
  go pos

(* One WAL image, scanned and chain-verified.  [s_divergence] is the
   offset where verification stopped early (the first-divergence offset a
   tamper verdict reports).  [s_anchor_chain] is the chain head once the
   records below the anchor LSN are read — what a snapshot at that LSN
   must have sealed — if the scan got that far. *)
type scan = {
  s_base_lsn : int;
  s_records : string list; (* data payloads, in order *)
  s_anchor_chain : int option;
  s_verified : int;
  s_tail_error : string option;
  s_divergence : int option;
  s_ends_sealed : bool;
  s_chain_head : int;
}

let scan_wal ~verify_chain ~anchor_lsn image =
  match Wal.read_header image with
  | Error why -> Error why
  | Ok (base_lsn, base_chain) ->
    let anchor = anchor_lsn - base_lsn in
    let finish payloads anchor_chain head pos ~ends_sealed ~error ~divergence =
      { s_base_lsn = base_lsn;
        s_records = List.rev payloads;
        s_anchor_chain = anchor_chain;
        s_verified = pos;
        s_tail_error = error;
        s_divergence = divergence;
        s_ends_sealed = ends_sealed;
        s_chain_head = head;
      }
    in
    let rec go payloads anchor_chain head count pos ends_sealed =
      let stop why =
        finish payloads anchor_chain head pos ~ends_sealed ~error:(Some why)
          ~divergence:(Some pos)
      in
      let frame =
        if verify_chain then Frame.scan_chained image ~pos ~prev:head
        else Frame.scan image ~pos
      in
      match frame with
      | Frame.End ->
        finish payloads anchor_chain head pos ~ends_sealed ~error:None ~divergence:None
      | Frame.Bad why -> stop why
      | Frame.Record { payload; kind = Frame.Data; chain; next } ->
        let anchor_chain = if count + 1 = anchor then Some chain else anchor_chain in
        go (payload :: payloads) anchor_chain chain (count + 1) next false
      | Frame.Record { payload; kind = Frame.Seal; chain; next } ->
        if not verify_chain then go payloads anchor_chain head count next true
        else begin
          match Wal.read_seal_payload payload with
          | None -> stop "malformed seal frame"
          | Some (sealed_chain, sealed_lsn) ->
            if sealed_chain <> head || chain <> head then
              stop "seal disagrees with the chain head"
            else if sealed_lsn <> base_lsn + count then
              stop "seal disagrees with the log position"
            else go payloads anchor_chain head count next true
        end
    in
    let anchor_chain = if anchor = 0 then Some base_chain else None in
    Ok (go [] anchor_chain base_chain 0 Wal.header_size true)

let rec drop n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

let run ?(verify_chain = true) ~wal ~snapshot () =
  let snap, snapshot_error =
    match Snapshot.read snapshot with
    | Ok s -> (s, None)
    | Error why -> (None, Some why)
  in
  let snap_lsn = match snap with Some s -> s.Snapshot.lsn | None -> 0 in
  let snap_chain = match snap with Some s -> s.Snapshot.chain | None -> Chain.zero in
  let snap_entries = match snap with Some s -> s.Snapshot.entries | None -> [] in
  (* Benign unless proven otherwise: [Verified] on a fully clean pair,
     [Torn_tail] on any drop or image error without tamper evidence. *)
  let default_verdict ~dropped ~tail_error =
    if dropped = 0 && tail_error = None && snapshot_error = None then Verified else Torn_tail
  in
  if Device.durable_size wal = 0 then
    (* A virgin device: nothing to verify, nothing lost; the caller
       formats it with a fresh header before appending. *)
    { entries = snap_entries;
      snapshot_lsn = snap_lsn;
      snapshot_entries = List.length snap_entries;
      wal_entries = 0;
      dropped_tail = 0;
      tail_error = None;
      snapshot_error;
      next_lsn = snap_lsn;
      verdict = default_verdict ~dropped:0 ~tail_error:None;
      chain_head = snap_chain;
      wal_ok = false;
      wal_base_lsn = snap_lsn;
      wal_records = 0;
      wal_verified_bytes = 0;
      wal_ends_sealed = true;
    }
  else
  let image = Device.contents wal in
  match scan_wal ~verify_chain ~anchor_lsn:snap_lsn image with
  | Error why ->
    (* No readable header: nothing in this file is trustworthy.  A valid
       seal anywhere in the image still proves the file once verified —
       a mutilated header over sealed records is tampering, not a torn
       tail (crashes cannot damage an already-synced header). *)
    let verdict =
      if valid_seal_after image ~pos:0 then Tamper_detected { offset = 0 } else Torn_tail
    in
    { entries = snap_entries;
      snapshot_lsn = snap_lsn;
      snapshot_entries = List.length snap_entries;
      wal_entries = 0;
      dropped_tail = Device.durable_size wal;
      tail_error = Some why;
      snapshot_error;
      next_lsn = snap_lsn;
      verdict;
      chain_head = snap_chain;
      wal_ok = false;
      wal_base_lsn = snap_lsn;
      wal_records = 0;
      wal_verified_bytes = 0;
      wal_ends_sealed = false;
    }
  | Ok s ->
    let base_lsn = s.s_base_lsn in
    let records = s.s_records in
    let count = List.length records in
    let dropped_tail = String.length image - s.s_verified in
    (* Classify the divergence: damage followed by a valid seal can only
       be post-sync mutation. *)
    let scan_tamper =
      match s.s_divergence with
      | Some p when valid_seal_after image ~pos:p -> Some p
      | _ -> None
    in
    let stitched, wal_used, wal_ok, next_lsn, snapshot_error, anchor_tamper =
      if snap = None && base_lsn > 0 then
        (* The WAL's prefix lives in a snapshot that is gone. *)
        ( snap_entries,
          0,
          false,
          snap_lsn,
          Some
            (Option.value snapshot_error
               ~default:
                 (Printf.sprintf "WAL expects a snapshot up to LSN %d but none verifies"
                    base_lsn)),
          false )
      else if base_lsn > snap_lsn then
        (* LSN gap between the snapshot image and the WAL's first record. *)
        ( snap_entries,
          0,
          false,
          snap_lsn,
          Some (Printf.sprintf "LSN gap: snapshot covers %d, WAL starts at %d" snap_lsn base_lsn),
          false )
      else begin
        (* base_lsn <= snap_lsn: skip the records the snapshot already
           covers (a crash between snapshot sync and WAL truncation leaves
           them behind). *)
        let overlap = snap_lsn - base_lsn in
        let fresh = drop overlap records in
        if fresh = [] && base_lsn + count < snap_lsn then
          (* The whole WAL predates the snapshot: stale, reformat. *)
          (snap_entries, 0, false, snap_lsn, snapshot_error, false)
        else begin
          (* Cross-device anchor: the WAL's chain at the snapshot's LSN
             must reproduce the sealed head the snapshot carries.  A
             mismatch means one side's history was rewritten. *)
          let anchor_tamper =
            verify_chain && snap <> None && s.s_anchor_chain <> Some snap_chain
          in
          ( snap_entries @ fresh,
            List.length fresh,
            true,
            max snap_lsn (base_lsn + count),
            snapshot_error,
            anchor_tamper )
        end
      end
    in
    let verdict =
      match scan_tamper with
      | Some offset -> Tamper_detected { offset }
      | None ->
        if anchor_tamper then
          (* The divergence is the anchor itself: point at the header's
             base_chain field. *)
          Tamper_detected { offset = String.length Wal.magic + 8 }
        else default_verdict ~dropped:dropped_tail ~tail_error:s.s_tail_error
    in
    { entries = stitched;
      snapshot_lsn = snap_lsn;
      snapshot_entries = List.length snap_entries;
      wal_entries = wal_used;
      dropped_tail;
      tail_error = s.s_tail_error;
      snapshot_error;
      next_lsn;
      verdict;
      chain_head = (if wal_ok then s.s_chain_head else snap_chain);
      wal_ok;
      wal_base_lsn = base_lsn;
      wal_records = count;
      wal_verified_bytes = s.s_verified;
      wal_ends_sealed = s.s_ends_sealed;
    }

let pp ppf t =
  Fmt.pf ppf "recovered %d entries (snapshot %d up to LSN %d, WAL %d); next LSN %d@."
    (List.length t.entries) t.snapshot_entries t.snapshot_lsn t.wal_entries t.next_lsn;
  Fmt.pf ppf "  chain head %s; verdict: %s@." (Chain.to_hex t.chain_head)
    (verdict_to_string t.verdict);
  (match t.tail_error with
  | Some why -> Fmt.pf ppf "  dropped tail: %d unverifiable bytes (%s)@." t.dropped_tail why
  | None -> if t.dropped_tail > 0 then Fmt.pf ppf "  dropped tail: %d bytes@." t.dropped_tail);
  (match t.snapshot_error with
  | Some why -> Fmt.pf ppf "  snapshot: %s@." why
  | None -> ());
  match t.verdict with
  | Tamper_detected { offset } ->
    Fmt.pf ppf
      "  ALERT: tamper detected — the WAL diverges at offset %d inside its once-verified \
       prefix; the trail before that point verifies, nothing after it is trustworthy@."
      offset
  | Torn_tail | Verified ->
    if clean t then Fmt.pf ppf "  clean recovery: the log verifies end-to-end@."
    else
      Fmt.pf ppf
        "  WARNING: the recovered log is a verified prefix; treat coverage over it as a \
         lower bound@."
