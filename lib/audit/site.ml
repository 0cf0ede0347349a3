(* One audited system in the clinical environment: a named audit store plus
   the mapping that normalises its raw records.  A modern HDB-instrumented
   site ingests standard entries directly; a legacy site ingests raw
   records through its mapping.

   Raw ingestion is atomic per record: a malformed record is routed to the
   site's quarantine (with its raw form and the mapping failure) instead of
   aborting the batch mid-way, and every raw record carries a site-local
   sequence number so re-submitted batches are idempotent — a record is
   ingested exactly once no matter how many times its batch is retried.

   A site may additionally sit on its own {!Durable.Log}: every mutation —
   an accepted entry, a ledger mark, a quarantine add/remove, a sequence
   advance — is framed as an op record into the write-ahead log *before*
   the in-memory state changes, so the store, the exactly-once ledger and
   the in-flight quarantine all survive a site-local crash and replay
   locally instead of re-ingesting from the source.  The WAL is
   hash-chained (per {!Durable.Frame}), so recovery distinguishes a benign
   torn tail (records past the last sync lost; the site owes its feed a
   replay from [next_seq]) from interior tampering. *)

type t = {
  name : string;
  store : Hdb.Audit_store.t;
  mutable mapping : Mapping.t;
  quarantine : Quarantine.t;
  (* seqs successfully ingested; the exactly-once ledger *)
  processed : (int, unit) Hashtbl.t;
  mutable next_seq : int;
  (* Per-site write-ahead durability (optional). *)
  mutable wal : Durable.Log.t option;
  (* A lossy or tampered recovery leaves the site degraded until the
     feed acknowledges it has replayed the lost suffix. *)
  mutable replay_pending : bool;
}

(* Op record codec.  One byte of opcode, then u32-prefixed strings and
   u64 numbers ({!Durable.Frame}'s payload fields):

     'E' [entry wire]                  entry accepted outside the ledger
     'S' [seq : u64] [entry wire]      entry accepted at seq (ledger mark)
     'P' [seq : u64]                   ledger mark alone (checkpoint image)
     'Q' [seq : u64] [reason] [npairs : u32] ([key] [value]) xn
                                       record quarantined at seq
     'R' [seq : u64]                   record left quarantine
     'N' [next : u64]                  sequence floor advanced

   A checkpoint image re-encodes live state as 'E' + 'P' + 'Q' + 'N' ops,
   so replay needs only this one decoder. *)

type op =
  | Op_entry of Hdb.Audit_schema.entry
  | Op_seq_entry of int * Hdb.Audit_schema.entry
  | Op_processed of int
  | Op_quarantined of int * string * (string * string) list (* seq, reason, raw *)
  | Op_unquarantined of int
  | Op_next of int

(* 'E' and 'S' ops share one allocation with their entry's wire form:
   opcode, seq ('S' only), the u32 wire length, the wire. *)
let entry_op ~header entry =
  let b = Hdb.Audit_schema.wire_bytes ~room:(header + 4) entry in
  Bytes.set_int32_le b header (Int32.of_int (Bytes.length b - header - 4));
  b

let encode_op op =
  (* a seq as [Frame.put_u64] writes it: low 63 bits, bit 63 clear *)
  let with_seq code seq b =
    Bytes.set b 0 code;
    Bytes.set_int64_le b 1 (Int64.logand (Int64.of_int seq) Int64.max_int);
    Bytes.unsafe_to_string b
  in
  match op with
  | Op_entry entry ->
    let b = entry_op ~header:1 entry in
    Bytes.set b 0 'E';
    Bytes.unsafe_to_string b
  | Op_seq_entry (seq, entry) -> with_seq 'S' seq (entry_op ~header:9 entry)
  | Op_processed seq -> with_seq 'P' seq (Bytes.create 9)
  | Op_unquarantined seq -> with_seq 'R' seq (Bytes.create 9)
  | Op_next next -> with_seq 'N' next (Bytes.create 9)
  | Op_quarantined (seq, reason, raw) ->
    let buffer = Buffer.create 64 in
    Buffer.add_char buffer 'Q';
    Durable.Frame.put_u64 buffer seq;
    Durable.Frame.put_string buffer reason;
    Durable.Frame.put_pairs buffer raw;
    Buffer.contents buffer

let decode_op s =
  let module F = Durable.Frame in
  let ( let* ) = Option.bind in
  let r = F.reader s in
  let entry () =
    let* wire = F.read_string r in
    Hdb.Audit_schema.of_wire wire
  in
  let* code = F.read_char r in
  match code with
  | 'E' ->
    let* e = entry () in
    F.finish r (Op_entry e)
  | 'S' ->
    let* seq = F.read_u64 r in
    let* e = entry () in
    F.finish r (Op_seq_entry (seq, e))
  | 'P' ->
    let* seq = F.read_u64 r in
    F.finish r (Op_processed seq)
  | 'Q' ->
    let* seq = F.read_u64 r in
    let* reason = F.read_string r in
    let* raw = F.read_pairs r in
    F.finish r (Op_quarantined (seq, reason, raw))
  | 'R' ->
    let* seq = F.read_u64 r in
    F.finish r (Op_unquarantined seq)
  | 'N' ->
    let* next = F.read_u64 r in
    F.finish r (Op_next next)
  | _ -> None

(* Attach an existing store (e.g. an enforcement logger's).  [quarantine]
   lets a restarted site adopt a quarantine recovered from a durable op
   log (its items keep their original seqs, so reprocessing after the
   restart composes with batch retries exactly as before the crash); the
   default is a fresh empty one. *)
let of_store ?(mapping = Mapping.identity) ?quarantine ~name store =
  { name;
    store;
    mapping;
    quarantine = (match quarantine with Some q -> q | None -> Quarantine.create ());
    processed = Hashtbl.create 64;
    next_seq = 0;
    wal = None;
    replay_pending = false;
  }

let create ?mapping ?quarantine ~name () =
  of_store ?mapping ?quarantine ~name (Hdb.Audit_store.create ())

let name t = t.name

let store t = t.store

let mapping t = t.mapping

(* e.g. after a privacy officer fixes a synonym; quarantined records can
   then be pushed back through [reprocess_quarantined]. *)
let set_mapping t mapping = t.mapping <- mapping

let quarantine t = t.quarantine

let quarantined_count t = Quarantine.site_count t.quarantine ~site:t.name

let length t = Hdb.Audit_store.length t.store

let next_seq t = t.next_seq

(* Encoded only when a WAL is attached; a WAL-less site's store refuses
   what the codec cannot encode just as the encoder would. *)
let log_op t op =
  match t.wal with
  | Some log -> ignore (Durable.Log.append log (encode_op op))
  | None -> ()

(* State updates alone — shared by the public mutators (which log first)
   and recovery replay (whose ops are already in the log). *)
let apply_entry t entry = Hdb.Audit_store.append t.store entry

let apply_mark t seq = Hashtbl.replace t.processed seq ()

(* A seq witnessed in any logged op keeps the floor monotone even when the
   'N' op that covered it was lost past the torn tail. *)
let witness_seq t seq = if seq >= t.next_seq then t.next_seq <- seq + 1

let ingest_entry t entry =
  log_op t (Op_entry entry);
  apply_entry t entry

let ingest_entries t entries = List.iter (ingest_entry t) entries

(* @raise Mapping.Unmappable on malformed raw records. *)
let ingest_raw t raw = ingest_entry t (Mapping.apply t.mapping raw)

type ingest_summary = {
  ingested : int;
  quarantined : int;
  duplicates : int; (* seqs already ingested or already quarantined *)
}

let empty_summary = { ingested = 0; quarantined = 0; duplicates = 0 }

let summary_total s = s.ingested + s.quarantined + s.duplicates

(* One raw record at a known sequence number.  Atomic: either the record is
   ingested, or it lands in quarantine with the mapping failure — the store
   is never left half-updated, and a seq seen before is a no-op.  The op is
   logged before state changes, so a crash between the two replays to the
   same outcome. *)
let ingest_raw_seq t ~seq raw summary =
  if Hashtbl.mem t.processed seq || Quarantine.mem t.quarantine ~site:t.name ~seq then
    { summary with duplicates = summary.duplicates + 1 }
  else
    match Mapping.apply t.mapping raw with
    | entry ->
      log_op t (Op_seq_entry (seq, entry));
      apply_entry t entry;
      apply_mark t seq;
      { summary with ingested = summary.ingested + 1 }
    | exception Mapping.Unmappable reason ->
      log_op t (Op_quarantined (seq, reason, raw));
      Quarantine.add t.quarantine ~site:t.name ~seq ~raw ~reason;
      { summary with quarantined = summary.quarantined + 1 }

(* A batch whose records occupy seqs [first_seq, first_seq + length).  A
   retried batch re-sends the same [first_seq]; its already-processed
   records count as duplicates and are skipped. *)
let ingest_raw_batch ?first_seq t raws =
  let first = Option.value first_seq ~default:t.next_seq in
  let next = max t.next_seq (first + List.length raws) in
  if next > t.next_seq then begin
    log_op t (Op_next next);
    t.next_seq <- next
  end;
  let summary, _ =
    List.fold_left
      (fun (summary, seq) raw -> (ingest_raw_seq t ~seq raw summary, seq + 1))
      (empty_summary, first) raws
  in
  summary

(* Fresh records at the next sequence numbers; never raises — failures are
   quarantined per record. *)
let ingest_raw_all t raws = ingest_raw_batch t raws

(* {2 Admitted ingestion} — the tenant gate in front of the mutation path.

   Ingestion is a Mutation, so the admission controller never browns it
   out: either the whole batch is admitted (and then ingests exactly as
   the un-gated path would), or it is shed with a typed, retryable
   rejection before ANY state — store, ledger, quarantine, WAL — is
   touched.  The gate reads the controller's last backpressure reading;
   it does not refresh it. *)

let ingest_entries_admitted adm t ~now ~principal entries =
  let rows = List.length entries in
  match Admission.admit adm ~now ~kind:Admission.Mutation principal (Admission.cost ~rows ()) with
  | Admission.Admitted _ ->
    ingest_entries t entries;
    Ok rows
  | Admission.Brownout _ -> assert false (* mutations are never browned out *)
  | Admission.Rejected r -> Error r

(* Push the site's quarantined records back through the (possibly fixed)
   mapping; records that still fail return to quarantine.  Original seqs are
   kept, so reprocessing composes with batch retries without double
   ingestion.  Each departure is logged ('R') before the re-ingestion op
   ('S' or a fresh 'Q'), so replay reproduces the resolution. *)
let reprocess_quarantined t =
  let stuck = Quarantine.site_items t.quarantine ~site:t.name in
  List.fold_left
    (fun summary (item : Quarantine.item) ->
      log_op t (Op_unquarantined item.Quarantine.seq);
      Quarantine.remove t.quarantine ~site:t.name ~seq:item.Quarantine.seq;
      ingest_raw_seq t ~seq:item.Quarantine.seq item.Quarantine.raw summary)
    empty_summary stuck

let entries_from t k = Hdb.Audit_store.to_list_from t.store k

let entries t = entries_from t 0

(* --- per-site durability --- *)

let wal t = t.wal

let sync_wal t = Option.iter Durable.Log.sync t.wal

(* The live state re-encoded as ops: entries first, then the ledger, the
   quarantine, and the sequence floor.  Replay order is immaterial across
   the groups — they touch disjoint state.  Mutations are write-ahead, so
   whenever the log takes it, mid-append included, the live state is
   exactly what the logged ops produce. *)
let checkpoint_image t =
  let entry_ops = List.rev_map (fun e -> encode_op (Op_entry e)) (List.rev (entries t)) in
  let seqs = Hashtbl.fold (fun seq () acc -> seq :: acc) t.processed [] in
  let mark_ops =
    List.map (fun seq -> encode_op (Op_processed seq)) (List.sort Int.compare seqs)
  in
  let quarantine_ops =
    List.map
      (fun (item : Quarantine.item) ->
        encode_op
          (Op_quarantined (item.Quarantine.seq, item.Quarantine.reason, item.Quarantine.raw)))
      (Quarantine.site_items t.quarantine ~site:t.name)
  in
  entry_ops @ mark_ops @ quarantine_ops @ [ encode_op (Op_next t.next_seq) ]

let attach_wal t log =
  Durable.Log.attach log ~image:(fun () -> checkpoint_image t);
  t.wal <- Some log

let apply_op t = function
  | Op_entry e -> apply_entry t e
  | Op_seq_entry (seq, e) ->
    apply_entry t e;
    apply_mark t seq;
    witness_seq t seq
  | Op_processed seq ->
    apply_mark t seq;
    witness_seq t seq
  | Op_quarantined (seq, reason, raw) ->
    Quarantine.add t.quarantine ~site:t.name ~seq ~raw ~reason;
    witness_seq t seq
  | Op_unquarantined seq -> Quarantine.remove t.quarantine ~site:t.name ~seq
  | Op_next next -> if next > t.next_seq then t.next_seq <- next

(* Replay a recovered op log into [t] (assumed fresh), then attach it so
   new mutations are write-ahead. *)
let restore t log =
  let report, undecodable = Durable.Log.replay log ~decode:decode_op ~apply:(apply_op t) in
  attach_wal t log;
  t.replay_pending <-
    Durable.Recovery.dropped_tail report || Durable.Recovery.tampered report || undecodable > 0;
  (report, undecodable)

let open_durable ?mapping ~name log =
  let t = create ?mapping ~name () in
  let report, undecodable = restore t log in
  (t, report, undecodable)

(* A site is durably degraded after a lossy or tampered recovery until its
   feed replays the lost suffix: records accepted before the crash may be
   missing from the store, so the site's own length is not a trustworthy
   total and consolidation must stay at [Lower_bound]. *)
let durably_degraded t = t.replay_pending

(* The feed declares it has re-sent everything past the verified prefix
   (it knows the suffix; the site only knows its [next_seq] floor). *)
let acknowledge_replay t = t.replay_pending <- false
