(* Crash-safety tests for the durable layer: for every injected crash
   point, recovery must return a verified prefix of what was appended —
   never a reordered, corrupted or invented record — and everything synced
   before the crash must survive it (except a truncation that died
   mid-fsync, which is allowed to lose stable bytes but still only ever
   shortens the prefix).  On top of the device matrix: WAL -> snapshot ->
   WAL round-trips, quarantine persistence across a kill/restart, and the
   system-level downgrade of coverage to a lower bound after a dropped
   tail. *)

module C = Durable.Chain
module D = Durable.Device
module F = Durable.Frame
module L = Durable.Log
module R = Durable.Recovery
module Snap = Durable.Snapshot
module W = Durable.Wal
module Schema = Hdb.Audit_schema
module Q = Audit_mgmt.Quarantine
module Site = Audit_mgmt.Site
module Shards = Audit_mgmt.Shard_store
module Codec_ref = Test_support.Codec_reference

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let matrix_seeds = [ 11; 22; 33 ]

let payload i = Printf.sprintf "record-%04d-%s" i (String.make (i mod 7) 'x')

let rec firstn n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: firstn (n - 1) tl

let is_prefix ~of_:whole part = part = firstn (List.length part) whole

(* Simulate a process restart: a fresh Log over the same (surviving)
   devices, as if the files were reopened. *)
let restart log = L.of_devices ~wal:(L.wal_device log) ~snapshot:(L.snapshot_device log)

(* Where the accepted records sit on stable media — tampering targets. *)
let data_spans image =
  List.filter (fun (_, _, k) -> k = F.Data) (W.frame_spans image)

(* --- the crash-point matrix --- *)

(* Append 30 records, sync after the 17th, crash at [point], recover.
   Verified-prefix invariant for every point; the synced prefix survives
   every point except Truncated_sync (which corrupts stable media by
   design). *)
let test_crash_matrix point seed () =
  let appended = List.init 30 payload in
  let synced = 17 in
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if i = synced - 1 then L.sync log)
    appended;
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_bool
      (Printf.sprintf "%s/%d: synced prefix survived (%d >= %d)"
         (D.crash_point_to_string point) seed (List.length r.R.entries) synced)
      true
      (List.length r.R.entries >= synced);
  check_int "next LSN = recovered count" (List.length r.R.entries) r.R.next_lsn;
  (* zero false positives: crash damage lands in the unsynced tail, so no
     crash point may ever be classified as interior tampering *)
  check_bool
    (Printf.sprintf "%s/%d: crash damage never reads as tampering"
       (D.crash_point_to_string point) seed)
    false (R.tampered r)

(* After recovery, the log must accept appends again and a second restart
   must see them — the "recover, keep going, crash again" lifecycle. *)
let test_resume_after_crash point seed () =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (List.init 12 payload);
  L.sync log;
  List.iter (fun p -> ignore (L.append log (p ^ "-unsynced"))) (List.init 6 payload);
  D.crash (L.wal_device log) ~point;
  let log2 = restart log in
  let r = L.open_or_recover log2 in
  let resumed_at = L.append log2 "post-crash" in
  check_int "append resumes at the recovered LSN" r.R.next_lsn resumed_at;
  L.sync log2;
  let r2 = L.open_or_recover (restart log2) in
  check_bool "second recovery is clean" true (R.clean r2);
  check_bool "post-crash record survived" true
    (r2.R.entries = r.R.entries @ [ "post-crash" ])

(* --- QCheck parity against an in-memory oracle --- *)

(* Random append/sync schedules, arbitrary payload bytes, one crash at the
   end.  Oracle: the plain list of appended payloads and how many of them
   had been synced.  Recovery must agree with the oracle's prefix. *)
let gen_schedule =
  let open QCheck2.Gen in
  let* seed = int_range 0 1000 in
  let* point = oneofl D.all_crash_points in
  let* sync_every = int_range 1 9 in
  let* payloads = list_size (int_range 1 40) (string_size ~gen:char (int_range 0 24)) in
  return (seed, point, sync_every, payloads)

let print_schedule (seed, point, sync_every, payloads) =
  Printf.sprintf "seed=%d point=%s sync_every=%d payloads=%d" seed
    (D.crash_point_to_string point)
    sync_every (List.length payloads)

let prop_recovery_matches_oracle =
  QCheck2.Test.make ~name:"recovery = verified prefix of the oracle" ~count:300
    ~print:print_schedule gen_schedule (fun (seed, point, sync_every, payloads) ->
      let log = L.create ~seed () in
      ignore (L.open_or_recover log);
      let synced = ref 0 in
      List.iteri
        (fun i p ->
          ignore (L.append log p);
          if (i + 1) mod sync_every = 0 then begin
            L.sync log;
            synced := i + 1
          end)
        payloads;
      D.crash (L.wal_device log) ~point;
      let r = L.open_or_recover (restart log) in
      is_prefix ~of_:payloads r.R.entries
      && (point = D.Truncated_sync || List.length r.R.entries >= !synced)
      && r.R.next_lsn = List.length r.R.entries)

(* --- checkpoint / snapshot --- *)

let test_wal_snapshot_wal_roundtrip () =
  let all = List.init 15 payload in
  let log = L.create ~seed:5 () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (firstn 10 all);
  L.sync log;
  L.attach log ~image:(fun () -> firstn 10 all);
  L.checkpoint log;
  check_int "WAL truncated to header" Durable.Wal.header_size
    (D.durable_size (L.wal_device log));
  List.iteri (fun i p -> check_int "LSN continues" (10 + i) (L.append log p))
    (List.filteri (fun i _ -> i >= 10) all);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_bool "clean" true (R.clean r);
  check_bool "snapshot + WAL stitch back to the full log" true (r.R.entries = all);
  check_int "snapshot contributed 10" 10 r.R.snapshot_entries;
  check_int "WAL contributed 5" 5 r.R.wal_entries;
  check_int "next LSN" 15 r.R.next_lsn

(* Crash in the checkpoint window: after the snapshot is written but
   before anything else happens, both the snapshot and the (already
   truncated) WAL must reconcile without losing or duplicating a record. *)
let test_crash_after_checkpoint () =
  List.iter
    (fun point ->
      let all = List.init 8 payload in
      let log = L.create ~seed:9 () in
      ignore (L.open_or_recover log);
      List.iter (fun p -> ignore (L.append log p)) all;
      L.sync log;
      L.attach log ~image:(fun () -> all);
      L.checkpoint log;
      (* Nothing is unsynced here, so only stable-media damage can bite. *)
      D.crash (L.wal_device log) ~point;
      let r = L.open_or_recover (restart log) in
      check_bool
        (Printf.sprintf "%s after checkpoint: snapshot carries the log"
           (D.crash_point_to_string point))
        true
        (is_prefix ~of_:all r.R.entries);
      if point <> D.Truncated_sync then
        check_bool "whole log survived via the snapshot" true (r.R.entries = all))
    D.all_crash_points

(* A WAL overlapping its snapshot (the crash landed between snapshot sync
   and WAL reformat) must not duplicate the overlap. *)
let test_overlapping_wal_not_duplicated () =
  let all = List.init 12 payload in
  let wal = D.create ~seed:3 () in
  let snapshot = D.create ~seed:4 () in
  let log = L.of_devices ~wal ~snapshot in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) all;
  L.sync log;
  (* Hand-write the snapshot as the checkpoint would — sealing the chain
     head at LSN 7 — then "crash" before the WAL reformat: the WAL still
     holds all 12 from LSN 0. *)
  let chain_at_7 =
    List.fold_left Durable.Chain.step Durable.Chain.zero (firstn 7 all)
  in
  Snap.write snapshot ~lsn:7 ~chain:chain_at_7 ~entries:(firstn 7 all);
  let r = L.open_or_recover (L.of_devices ~wal ~snapshot) in
  check_bool "clean" true (R.clean r);
  check_bool "no duplication across the overlap" true (r.R.entries = all);
  check_int "snapshot 7" 7 r.R.snapshot_entries;
  check_int "wal contributes only the suffix" 5 r.R.wal_entries

(* --- quarantine persistence --- *)

let raw_of i = [ ("user", Printf.sprintf "u%d" i); ("data", "referral") ]

let test_quarantine_survives_restart () =
  let log = L.create ~seed:21 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:2 ~raw:(raw_of 2) ~reason:"corrupt";
  Audit_mgmt.Quarantine.add q ~site:"lab" ~seq:1 ~raw:(raw_of 3) ~reason:"unmappable";
  (* Resolve one: the removal must also survive the restart. *)
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:1;
  L.sync log;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "two items survived" 2 (Audit_mgmt.Quarantine.length q2);
  check_bool "resolution survived" false (Audit_mgmt.Quarantine.mem q2 ~site:"icu" ~seq:1);
  check_bool "items identical" true
    (Audit_mgmt.Quarantine.items q = Audit_mgmt.Quarantine.items q2)

let test_quarantine_checkpoint_and_crash () =
  let log = L.create ~seed:22 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:2 ~raw:(raw_of 2) ~reason:"corrupt";
  L.sync log;
  L.checkpoint log;
  (* An unsynced mutation after the checkpoint is lost by a crash, but the
     checkpointed state must come back intact. *)
  Audit_mgmt.Quarantine.add q ~site:"lab" ~seq:9 ~raw:(raw_of 9) ~reason:"late";
  D.crash (L.wal_device log) ~point:D.Clean_loss;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_int "no codec mismatches" 0 undecodable;
  check_int "checkpointed items back" 2 (Audit_mgmt.Quarantine.length q2);
  check_bool "unsynced late add lost" false (Audit_mgmt.Quarantine.mem q2 ~site:"lab" ~seq:9);
  check_int "snapshot carried them" 2 r.R.snapshot_entries

let test_quarantine_clear_is_durable () =
  let log = L.create ~seed:23 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.clear q;
  L.sync log;
  let q2, _, _ = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_int "clear survived" 0 (Audit_mgmt.Quarantine.length q2)

(* --- audit store persistence --- *)

let entry i =
  Hdb.Audit_schema.entry ~time:i
    ~op:(if i mod 5 = 0 then Hdb.Audit_schema.Disallow else Hdb.Audit_schema.Allow)
    ~user:(Printf.sprintf "user-%d" (i mod 3))
    ~data:"referral" ~purpose:"registration" ~authorized:"nurse"
    ~status:(if i mod 2 = 0 then Hdb.Audit_schema.Regular else Hdb.Audit_schema.Exception_based)

let test_audit_store_survives_restart () =
  let log = L.create ~seed:31 () in
  let store = Hdb.Audit_store.create () in
  ignore (Hdb.Audit_store.restore store log);
  let entries = List.init 20 entry in
  Hdb.Audit_store.append_all store entries;
  L.sync log;
  let log2 = restart log in
  let store2, r, undecodable = Hdb.Audit_store.open_durable log2 in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_bool "entries identical" true (Hdb.Audit_store.to_list store2 = entries);
  check_int "LSN continues" 20 (Hdb.Audit_store.lsn store2);
  (* checkpoint, extend, crash the unsynced tail, restart *)
  L.checkpoint log2;
  Hdb.Audit_store.append store2 (entry 20);
  L.sync log2;
  Hdb.Audit_store.append store2 (entry 21);
  (* not synced *)
  (match Hdb.Audit_store.log store2 with
  | Some log2 -> D.crash (L.wal_device log2) ~point:D.Torn_tail
  | None -> Alcotest.fail "store lost its log");
  let store3, r3, _ = Hdb.Audit_store.open_durable (restart log) in
  check_bool "synced 21 back" true
    (Hdb.Audit_store.to_list store3 = entries @ [ entry 20 ]
    || Hdb.Audit_store.to_list store3 = entries @ [ entry 20; entry 21 ]);
  check_int "snapshot carried the first 20" 20 r3.R.snapshot_entries

(* --- system level: dropped tail downgrades coverage --- *)

let scenario_entries () = Workload.Scenario.table1_entries ()

let test_system_recovery_and_lower_bound () =
  let audit_log = L.create ~seed:41 () in
  let quarantine_log = L.create ~seed:42 () in
  let storage = { Prima_system.System.audit_log; quarantine_log } in
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  (* Run 1: a durably-backed system accumulates a trail; part of it is
     synced, a tail is still in the page cache when the process dies. *)
  let system = Prima_system.System.create ~storage ~vocab ~p_ps () in
  check_bool "fresh storage recovers clean" true
    (Prima_system.System.standing_reasons system = []);
  let store = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  let entries = scenario_entries () in
  Hdb.Audit_store.append_all store entries;
  Prima_system.System.sync_durable system;
  Hdb.Audit_store.append_all store (List.init 4 entry);
  D.crash (L.wal_device audit_log) ~point:D.Partial_header;
  (* Run 2: reopen the surviving media.  Partial_header always cuts inside
     an unsynced record's header, so the tail drop is guaranteed. *)
  let storage2 =
    { Prima_system.System.audit_log = restart audit_log;
      quarantine_log = restart quarantine_log;
    }
  in
  let system2 = Prima_system.System.create ~storage:storage2 ~vocab ~p_ps () in
  let recovery =
    match Prima_system.System.recovery system2 with
    | Some r -> r
    | None -> Alcotest.fail "no recovery report"
  in
  check_bool "audit tail dropped" true (R.dropped_tail recovery.Prima_system.System.audit);
  check_bool "system names the lost tail" true
    (Prima_system.System.standing_reasons system2 = [ Prima_core.Coverage.Wal_tail_lost "audit" ]);
  let store2 = Hdb.Control_center.audit_store (Prima_system.System.control system2) in
  check_bool "synced trail survived" true
    (firstn (List.length entries) (Hdb.Audit_store.to_list store2) = entries);
  (* Even at completeness 1.0 the coverage label must be a lower bound:
     the trail on disk is a verified prefix, not certainly the history. *)
  let qc = Prima_system.System.coverage_qualified system2 in
  check_bool "window itself is complete" true
    (qc.Prima_system.System.health.Audit_mgmt.Health.completeness >= 1.0);
  let lost_tail (q : Prima_core.Coverage.qualified) =
    q.Prima_core.Coverage.qualifier
    = Prima_core.Coverage.Lower_bound
        { Prima_core.Coverage.completeness = 1.0;
          reasons = [ Prima_core.Coverage.Wal_tail_lost "audit" ];
        }
  in
  check_bool "bag coverage is a lower bound naming the lost tail" true
    (lost_tail qc.Prima_system.System.bag_semantics);
  check_bool "set coverage is a lower bound naming the lost tail" true
    (lost_tail qc.Prima_system.System.set_semantics)

(* Tampering is surfaced all the way up: the system reports it at the
   divergence offset, amputates the trail there, and labels every coverage
   reading a lower bound naming the tamper. *)
let test_system_tamper_forces_lower_bound () =
  let audit_log = L.create ~seed:43 () in
  let quarantine_log = L.create ~seed:44 () in
  let storage = { Prima_system.System.audit_log; quarantine_log } in
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~storage ~vocab ~p_ps () in
  check_bool "fresh storage is untampered" true
    (Prima_system.System.standing_reasons system = []);
  let store = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  let entries = scenario_entries () in
  Hdb.Audit_store.append_all store entries;
  Prima_system.System.sync_durable system;
  (* interior mutation of an accepted record — the region crashes never touch *)
  let wal = L.wal_device audit_log in
  let off, _, _ = List.nth (data_spans (D.contents wal)) 1 in
  D.corrupt_stable wal ~pos:(off + F.header_size) ~bit:3;
  let storage2 =
    { Prima_system.System.audit_log = restart audit_log;
      quarantine_log = restart quarantine_log;
    }
  in
  let system2 = Prima_system.System.create ~storage:storage2 ~vocab ~p_ps () in
  let tamper = Prima_core.Coverage.Tampered { log = "audit"; offset = off } in
  check_bool "system reports the tampering at its offset" true
    (Prima_system.System.standing_reasons system2 = [ tamper ]);
  let recovery =
    match Prima_system.System.recovery system2 with
    | Some r -> r
    | None -> Alcotest.fail "no recovery report"
  in
  (match recovery.Prima_system.System.audit.R.verdict with
  | R.Tamper_detected { offset } -> check_int "divergence at the mutated frame" off offset
  | v -> Alcotest.failf "expected tamper verdict, got %s" (R.verdict_to_string v));
  let store2 = Hdb.Control_center.audit_store (Prima_system.System.control system2) in
  check_bool "trail amputated just before the mutation" true
    (Hdb.Audit_store.to_list store2 = firstn 1 entries);
  let qc = Prima_system.System.coverage_qualified system2 in
  check_bool "set coverage names the tamper" true
    (Prima_core.Coverage.reasons qc.Prima_system.System.set_semantics.Prima_core.Coverage.qualifier
    = [ tamper ]);
  check_bool "bag coverage names the tamper" true
    (Prima_core.Coverage.reasons qc.Prima_system.System.bag_semantics.Prima_core.Coverage.qualifier
    = [ tamper ])

(* The adaptive completeness gate: the configured floor applies in full to
   a large window, scaled down on a small one. *)
let test_adaptive_threshold_scales () =
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~completeness_threshold:0.9 ~vocab ~p_ps () in
  check_bool "small window floor is below the configured threshold" true
    (Prima_system.System.effective_threshold system < 0.9);
  (* effective = 0.9 * n / (n + 25): half the configured value at n = 25,
     converging towards 0.9 as n grows. *)
  let eps = 1e-9 in
  let eff n = 0.9 *. float_of_int n /. float_of_int (n + 25) in
  check_bool "n=25 halves the floor" true (abs_float (eff 25 -. 0.45) < eps);
  check_bool "monotone in window size" true (eff 100 > eff 25 && eff 10_000 > eff 100);
  check_bool "bounded by the configured threshold" true (eff 1_000_000 < 0.9)

(* --- tamper evidence: interior mutation of sealed media --- *)

(* A sealed log: [n] records appended and synced, so every data frame on
   stable media precedes a seal frame — the region a crash can never
   damage, and exactly where a tampering mutation must be caught. *)
let sealed_log ~seed ~n ~sync_every =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if (i + 1) mod sync_every = 0 || i = n - 1 then L.sync log)
    (List.init n payload);
  log

(* The corrupted-length case: flip a bit inside the length field of an
   accepted (stable, sealed) frame.  The CRC covers the length bytes, so a
   reframed scan cannot silently resynchronise — the verdict is tampering
   at exactly that frame, twice over, and adopting the log amputates the
   trail just before it, after which life goes on and the evidence is
   consumed. *)
let test_tamper_corrupted_length seed () =
  let all = List.init 12 payload in
  let log = sealed_log ~seed ~n:12 ~sync_every:5 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  let idx = 6 in
  let off, _, _ = List.nth (data_spans (D.contents wal)) idx in
  D.corrupt_stable wal ~pos:(off + (seed mod 4)) ~bit:(seed mod 8);
  let r1 = R.run ~wal ~snapshot:snap () in
  (match r1.R.verdict with
  | R.Tamper_detected { offset } ->
    check_int (Printf.sprintf "seed %d: divergence at the frame start" seed) off offset
  | v -> Alcotest.failf "seed %d: expected tamper, got %s" seed (R.verdict_to_string v));
  check_int "scan stopped dead at the mutated record" idx r1.R.wal_records;
  check_bool "mutated record never surfaced" true (r1.R.entries = firstn idx all);
  (* read-only verification is idempotent *)
  let r2 = R.run ~wal ~snapshot:snap () in
  check_bool "verdict idempotent" true (r1.R.verdict = r2.R.verdict);
  (* adoption: reopen truncates at the divergence and reseals *)
  let log2 = restart log in
  let r3 = L.open_or_recover log2 in
  check_bool "open still reports the tampering" true (R.tampered r3);
  check_bool "adopted trail is the amputated prefix" true (r3.R.entries = firstn idx all);
  ignore (L.append log2 "after-tamper");
  L.sync log2;
  let r4 = L.open_or_recover (restart log2) in
  check_bool "evidence consumed: next recovery is clean" true
    (R.clean r4 && not (R.tampered r4));
  check_bool "trail continues past the amputation" true
    (r4.R.entries = firstn idx all @ [ "after-tamper" ])

(* Mutating the already-synced header is tampering too: a crash cannot
   touch it, and the seals further in prove the file once verified. *)
let test_tamper_header_magic () =
  let log = sealed_log ~seed:77 ~n:8 ~sync_every:3 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  D.corrupt_stable wal ~pos:2 ~bit:1;
  let r = R.run ~wal ~snapshot:snap () in
  check_bool "mutilated magic reads as tampering" true (R.tampered r);
  check_bool "nothing surfaced from the unreadable file" true (r.R.entries = [])

let test_tamper_base_chain () =
  let log = sealed_log ~seed:78 ~n:8 ~sync_every:3 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  (* base_chain lives right after magic + base_lsn; flipping it breaks the
     first data frame's chain link *)
  D.corrupt_stable wal ~pos:(String.length W.magic + 8) ~bit:0;
  let r = R.run ~wal ~snapshot:snap () in
  match r.R.verdict with
  | R.Tamper_detected { offset } -> check_int "divergence at the first frame" W.header_size offset
  | v -> Alcotest.failf "expected tamper, got %s" (R.verdict_to_string v)

(* Pinned hole: Frame.get_u64 folds 64 stored bits into a 63-bit OCaml
   int, so a set bit 63 of either header u64 would vanish in the parse —
   and the header has no CRC.  Found by prop_single_bitflip_caught
   (seed=11 n=8 sync_every=4 pos_pick=40941 bit=7: bit 63 of base_lsn);
   read_header now rejects a top byte with either high bit set. *)
let test_tamper_header_high_bits () =
  List.iter
    (fun (name, field_offset) ->
      let lo = String.length W.magic + field_offset in
      List.iter
        (fun bit ->
          let log = sealed_log ~seed:80 ~n:8 ~sync_every:4 in
          let wal = L.wal_device log and snap = L.snapshot_device log in
          D.corrupt_stable wal ~pos:(lo + 7) ~bit;
          let r = R.run ~wal ~snapshot:snap () in
          check_bool
            (Printf.sprintf "bit %d of %s top byte reads as tampering" bit name)
            true (R.tampered r))
        [ 6; 7 ])
    [ ("base_lsn", 0); ("base_chain", 8) ]

(* The cross-device anchor: a snapshot whose sealed chain head the WAL's
   header cannot reproduce means one side's history was rewritten. *)
let test_tamper_snapshot_anchor () =
  let all = List.init 10 payload in
  let log = L.create ~seed:79 () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (firstn 6 all);
  L.sync log;
  L.attach log ~image:(fun () -> firstn 6 all);
  L.checkpoint log;
  List.iter (fun p -> ignore (L.append log p)) (List.filteri (fun i _ -> i >= 6) all);
  L.sync log;
  (* flip one bit of the snapshot header's chain field *)
  D.corrupt_stable (L.snapshot_device log) ~pos:(String.length Snap.magic + 8) ~bit:4;
  let r = R.run ~wal:(L.wal_device log) ~snapshot:(L.snapshot_device log) () in
  match r.R.verdict with
  | R.Tamper_detected { offset } ->
    check_int "divergence points at the chain anchor" (String.length W.magic + 8) offset
  | v -> Alcotest.failf "expected anchor tamper, got %s" (R.verdict_to_string v)

let test_chain_hex_roundtrip () =
  List.iter
    (fun n ->
      match C.of_hex (C.to_hex n) with
      | Some m -> check_bool "hex round-trip" true (m = n)
      | None -> Alcotest.fail "to_hex produced unparseable hex")
    [ 0; 1; C.zero; C.step C.zero "x"; C.hash_string "payload" ];
  check_bool "garbage rejected" true (C.of_hex "not-hex-at-all!" = None);
  check_bool "short hex rejected" true (C.of_hex "abc" = None)

(* Satellite property: one bit flip at any sampled offset of a sealed WAL
   is caught — never a clean recovery — and a flip landing inside a data
   frame is classified as tampering at exactly that frame's offset, with
   the same verdict on a second verification.  Device seeds are the three
   fixed matrix seeds, so the damage streams are stable across runs. *)
let gen_tamper =
  let open QCheck2.Gen in
  let* seed = oneofl matrix_seeds in
  let* n = int_range 1 20 in
  let* sync_every = int_range 1 6 in
  let* pos_pick = int_range 0 100_000 in
  let* bit = int_range 0 7 in
  return (seed, n, sync_every, pos_pick, bit)

let print_tamper (seed, n, sync_every, pos_pick, bit) =
  Printf.sprintf "seed=%d n=%d sync_every=%d pos_pick=%d bit=%d" seed n sync_every pos_pick
    bit

let prop_single_bitflip_caught =
  QCheck2.Test.make ~name:"single bit flip on a sealed WAL is caught" ~count:300
    ~print:print_tamper gen_tamper (fun (seed, n, sync_every, pos_pick, bit) ->
      let log = sealed_log ~seed ~n ~sync_every in
      let wal = L.wal_device log and snap = L.snapshot_device log in
      let image = D.contents wal in
      let pos = pos_pick mod String.length image in
      D.corrupt_stable wal ~pos ~bit;
      let r1 = R.run ~wal ~snapshot:snap () in
      let r2 = R.run ~wal ~snapshot:snap () in
      let caught = not (R.clean r1) in
      let idempotent = r1.R.verdict = r2.R.verdict in
      let correct_offset =
        match
          List.find_opt
            (fun (off, len, _) -> pos >= off && pos < off + len)
            (data_spans image)
        with
        | Some (off, _, _) -> r1.R.verdict = R.Tamper_detected { offset = off }
        | None -> true (* header or seal bytes: caught above, offset unconstrained *)
      in
      caught && idempotent && correct_offset)

(* --- background checkpointing --- *)

(* The log compacts itself once the WAL exceeds the policy.  The image
   callback mirrors the write-ahead discipline of the real stores: memory
   is updated only after the append returns, so at trigger time (before
   the new payload is logged) the image covers exactly the WAL contents. *)
let test_auto_checkpoint_records () =
  let log = L.create ~seed:51 () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.attach log ~image:(fun () -> !mem);
  L.set_auto_checkpoint log (Some (L.checkpoint_every ~records:5 ()));
  let appended = List.init 23 payload in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  L.sync log;
  (* Trigger fires before appends 6, 11, 16 and 21 (WAL at 5 records). *)
  check_int "auto checkpoints fired" 4 (L.auto_checkpoints log);
  let r = L.open_or_recover (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_bool "nothing lost to compaction" true (r.R.entries = appended);
  check_int "snapshot carries the compacted prefix" 20 r.R.snapshot_entries;
  check_int "wal holds only the live tail" 3 r.R.wal_entries

let test_auto_checkpoint_bytes () =
  let log = L.create ~seed:52 () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.attach log ~image:(fun () -> !mem);
  L.set_auto_checkpoint log (Some (L.checkpoint_every ~bytes:50 ()));
  let appended = List.init 18 (Printf.sprintf "%010d") in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  L.sync log;
  (* 10-byte payloads against a 50-byte budget: fires before appends 6,
     11 and 16. *)
  check_int "auto checkpoints fired" 3 (L.auto_checkpoints log);
  let r = L.open_or_recover (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_bool "nothing lost to compaction" true (r.R.entries = appended);
  check_int "snapshot carries the compacted prefix" 15 r.R.snapshot_entries;
  (* setting no policy really detaches the old one *)
  let log2 = restart log in
  ignore (L.open_or_recover log2);
  L.attach log2 ~image:(fun () -> !mem);
  L.set_auto_checkpoint log2 (Some (L.checkpoint_every ~records:1 ()));
  L.set_auto_checkpoint log2 None;
  ignore (L.append log2 "tail");
  check_int "cleared policy never fires" 0 (L.auto_checkpoints log2)

(* Crash during the auto-checkpointed lifecycle: whatever the WAL device
   loses, the snapshots written by the background policy sit on the other
   device and must bound the damage. *)
let test_crash_after_auto_checkpoint point seed () =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.attach log ~image:(fun () -> !mem);
  L.set_auto_checkpoint log (Some (L.checkpoint_every ~records:4 ()));
  let appended = List.init 14 payload in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  (* Triggers before appends 5, 9 and 13: snapshot covers 12, WAL holds 2
     unsynced records.  Crash only the WAL device. *)
  check_int "auto checkpoints fired" 3 (L.auto_checkpoints log);
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_bool
      (Printf.sprintf "%s/%d: snapshot floor held (%d >= 12)"
         (D.crash_point_to_string point) seed (List.length r.R.entries))
      true
      (List.length r.R.entries >= 12)

(* The store-level wiring: an audit store and a quarantine with the policy
   enabled compact themselves and still restart losslessly. *)
let test_audit_store_auto_checkpoint () =
  let log = L.create ~seed:53 () in
  let store, _, _ = Hdb.Audit_store.open_durable log in
  L.set_auto_checkpoint log (Some (L.checkpoint_every ~records:5 ()));
  let entries = List.init 17 entry in
  Hdb.Audit_store.append_all store entries;
  L.sync log;
  check_bool "policy fired" true (L.auto_checkpoints log >= 2);
  let store2, r, undecodable = Hdb.Audit_store.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_bool "entries identical" true (Hdb.Audit_store.to_list store2 = entries);
  check_int "LSN continues" 17 (Hdb.Audit_store.lsn store2);
  check_bool "snapshot absorbed the prefix" true (r.R.snapshot_entries >= 10)

let test_quarantine_auto_checkpoint () =
  let log = L.create ~seed:54 () in
  let q, _, _ = Audit_mgmt.Quarantine.open_durable log in
  L.set_auto_checkpoint log (Some (L.checkpoint_every ~records:4 ()));
  for i = 1 to 13 do
    Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:i ~raw:(raw_of i) ~reason:"unmappable"
  done;
  (* Resolutions are ops too: they count against the policy and must not
     resurrect on restart even when compaction interleaves them. *)
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:2;
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:7;
  L.sync log;
  check_bool "policy fired" true (L.auto_checkpoints log >= 2);
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "live items back" 11 (Audit_mgmt.Quarantine.length q2);
  check_bool "resolved item stayed resolved" false
    (Audit_mgmt.Quarantine.mem q2 ~site:"icu" ~seq:7);
  check_bool "items identical" true
    (Audit_mgmt.Quarantine.items q = Audit_mgmt.Quarantine.items q2)

let matrix name f =
  List.concat_map
    (fun point ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s %s seed %d" name (D.crash_point_to_string point) seed)
            `Quick (f point seed))
        matrix_seeds)
    D.all_crash_points

(* --- group-commit batching --- *)

(* With batching on, appends accumulate in user space — the device sees
   nothing until sync, which lands the whole batch as one write. *)
let test_group_commit_coalesces () =
  let log = L.create ~seed:44 () in
  ignore (L.open_or_recover log);
  let dev = L.wal_device log in
  let base_unsynced = D.unsynced dev in
  let base_syncs = D.syncs dev in
  L.set_group_commit log true;
  check_bool "mode reads back" true (L.group_commit log);
  for i = 0 to 9 do
    ignore (L.append log (payload i))
  done;
  check_int "appends pend in user space, not the page cache" base_unsynced
    (D.unsynced dev);
  check_int "ten records pending" 10 (L.pending_records log);
  L.sync log;
  check_int "sync drains the batch" 0 (L.pending_records log);
  check_int "one device sync covered all ten records" (base_syncs + 1) (D.syncs dev);
  let r = L.open_or_recover (restart log) in
  check_int "all ten durable" 10 (List.length r.R.entries)

(* Turning batching off flushes the pending batch to the page cache so
   nothing silently vanishes on the mode switch. *)
let test_group_commit_off_flushes () =
  let log = L.create ~seed:45 () in
  ignore (L.open_or_recover log);
  let dev = L.wal_device log in
  let base_unsynced = D.unsynced dev in
  L.set_group_commit log true;
  for i = 0 to 4 do
    ignore (L.append log (payload i))
  done;
  check_int "five pending" 5 (L.pending_records log);
  L.set_group_commit log false;
  check_int "switch-off flushes the batch" 0 (L.pending_records log);
  check_bool "bytes reached the page cache" true (D.unsynced dev > base_unsynced);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_int "all five durable" 5 (List.length r.R.entries)

(* Checkpoint replaces the WAL object underneath the log; the batching mode
   must survive onto the fresh WAL. *)
let test_group_commit_survives_checkpoint () =
  let log = L.create ~seed:46 () in
  ignore (L.open_or_recover log);
  L.set_group_commit log true;
  for i = 0 to 4 do
    ignore (L.append log (payload i))
  done;
  L.attach log ~image:(fun () -> List.init 5 payload);
  L.checkpoint log;
  check_bool "mode survives the WAL replacement" true (L.group_commit log);
  ignore (L.append log (payload 99));
  check_int "appends still batch after checkpoint" 1 (L.pending_records log);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_int "snapshot + post-checkpoint record" 6 (List.length r.R.entries)

(* Crash matrix under group commit: the pending batch is lost entirely —
   strictly within the durability contract — and since nothing unsynced
   ever reached the device, every crash point except the lying fsync
   recovers exactly the synced prefix. *)
let test_group_commit_crash_matrix point seed () =
  let appended = List.init 30 payload in
  let synced = 17 in
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  L.set_group_commit log true;
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if i = synced - 1 then L.sync log)
    appended;
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "gc/%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_int
      (Printf.sprintf "gc/%s/%d: exactly the synced batch survives"
         (D.crash_point_to_string point) seed)
      synced
      (List.length r.R.entries)

(* --- quarantine reprocess across a crash ---

   A site quarantines foreign records its mapping cannot read; the mapping
   fix arrives, and the process dies *between* the fix and the reprocess.
   After recovery the reprocess must run exactly once: a second reprocess
   and a full upstream retry of the original batch are both no-ops. *)

let foreign_raw i role_col =
  [
    ("time", string_of_int (i + 1));
    ("op", "allow");
    ("user", Printf.sprintf "u%d" i);
    ("data", "referral");
    ("purpose", "treatment");
    (role_col, "nurse");
    ("status", "btg");
  ]

let test_quarantine_reprocess_idempotent_across_crash () =
  let log = L.create ~seed:77 () in
  let q, _, _ = Audit_mgmt.Quarantine.open_durable log in
  let site = Audit_mgmt.Site.create ~quarantine:q ~name:"icu" () in
  (* "rolle" hides the authorized attribute from the identity mapping *)
  let batch = List.init 4 (fun i -> foreign_raw i "rolle") in
  let s = Audit_mgmt.Site.ingest_raw_all site batch in
  check_int "all quarantined" 4 s.Audit_mgmt.Site.quarantined;
  L.sync log;
  (* the mapping fix lands; the process dies before reprocessing runs *)
  D.crash (L.wal_device log) ~point:D.Clean_loss;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "items survived the crash" 4 (Audit_mgmt.Quarantine.length q2);
  let fixed =
    Audit_mgmt.Mapping.create ~column_aliases:[ ("rolle", "authorized") ] ()
  in
  let site2 = Audit_mgmt.Site.create ~mapping:fixed ~quarantine:q2 ~name:"icu" () in
  let first = Audit_mgmt.Site.reprocess_quarantined site2 in
  check_int "reprocess ingests everything" 4 first.Audit_mgmt.Site.ingested;
  check_int "quarantine drained" 0 (Audit_mgmt.Quarantine.length q2);
  check_int "store holds the records" 4 (Audit_mgmt.Site.length site2);
  (* idempotence: a second reprocess is a no-op *)
  let second = Audit_mgmt.Site.reprocess_quarantined site2 in
  check_int "second reprocess ingests nothing" 0
    (Audit_mgmt.Site.summary_total second);
  (* and an upstream retry of the original batch at its original seqs is
     all duplicates — exactly-once across crash + reprocess *)
  let retry = Audit_mgmt.Site.ingest_raw_batch ~first_seq:0 site2 batch in
  check_int "retried batch is all duplicates" 4 retry.Audit_mgmt.Site.duplicates;
  check_int "store unchanged" 4 (Audit_mgmt.Site.length site2)

(* --- the shard manifest ---

   One checksummed catalogue frame behind a magic header.  The codec must
   round-trip arbitrary catalogues bit-for-bit, and any damage — a
   truncation at any byte, a flip of any bit — must make the whole image
   unreadable: the reader serves the full catalogue or none, never a
   half-catalogue.  Damage sweeps run per matrix seed so the device
   streams are stable across runs. *)

module M = Durable.Manifest

let gen_catalogue =
  let open QCheck2.Gen in
  let gen_shard =
    let* name = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
    let* bucket = int_range 0 99 in
    let* lo = int_range 0 1_000_000 in
    let* span = int_range 0 10_000 in
    let* records = int_range 0 100_000 in
    let* chain = int_range 0 max_int in
    return
      { M.name = Printf.sprintf "%s#%d" name bucket;
        lo;
        hi = lo + span;
        records;
        chain;
      }
  in
  let* shards = list_size (int_range 0 12) gen_shard in
  return { M.shards }

let print_catalogue (t : M.t) = Format.asprintf "%a" M.pp t

let prop_manifest_roundtrip =
  QCheck2.Test.make ~name:"manifest encode/decode round-trip" ~count:300
    ~print:print_catalogue gen_catalogue (fun t -> M.decode (M.encode t) = Ok t)

(* A device holding [image] bytes, all synced — the state a manifest is
   read back from after a restart. *)
let device_of ~seed image =
  let dv = D.create ~seed () in
  D.append dv image;
  D.sync dv;
  dv

let sample_catalogue =
  { M.shards =
      [ { M.name = "icu#3"; lo = 30_000; hi = 39_992; records = 41; chain = 77 };
        { M.name = "icu#4"; lo = 40_001; hi = 49_871; records = 12; chain = 133 };
        { M.name = "lab#3"; lo = 30_505; hi = 39_404; records = 7; chain = 9 };
      ];
  }

let test_manifest_write_read seed () =
  let dv = D.create ~seed () in
  check_bool "empty device: no manifest yet" true (M.read dv = Ok None);
  M.write dv sample_catalogue;
  check_bool "reads back whole" true (M.read dv = Ok (Some sample_catalogue));
  (* a rewrite replaces, never appends *)
  let smaller = { M.shards = [ List.hd sample_catalogue.M.shards ] } in
  M.write dv smaller;
  check_bool "replaced wholesale" true (M.read dv = Ok (Some smaller))

(* Every proper truncation of the image is unreadable (the empty prefix is
   the one exception: indistinguishable from "no manifest yet", which is
   exactly the torn-write-from-scratch story — the store rebuilds). *)
let test_manifest_truncation seed () =
  let image = M.encode sample_catalogue in
  let n = String.length image in
  for cut = 0 to n - 1 do
    let dv = device_of ~seed (String.sub image 0 cut) in
    match M.read dv with
    | Ok None ->
      check_int "only the empty prefix reads as absent" 0 cut
    | Ok (Some _) ->
      Alcotest.failf "truncation at %d/%d served a catalogue" cut n
    | Error _ -> ()
  done

(* One flipped bit anywhere — magic, frame header, payload, CRC, chain —
   makes the image unreadable; the bit position is drawn per byte from the
   seeded stream so each matrix seed sweeps a different damage pattern. *)
let test_manifest_bitflip seed () =
  let image = M.encode sample_catalogue in
  let rng = Splitmix.create ~seed in
  String.iteri
    (fun pos _ ->
      let bit = Splitmix.int rng 8 in
      let dv = device_of ~seed image in
      D.corrupt_stable dv ~pos ~bit;
      match M.read dv with
      | Ok (Some t) when t = sample_catalogue ->
        (* the flip must actually change the byte, so this cannot happen *)
        Alcotest.failf "bit %d of byte %d read back as the intact catalogue" bit pos
      | Ok (Some _) -> Alcotest.failf "bit %d of byte %d served a catalogue" bit pos
      | Ok None -> Alcotest.failf "bit %d of byte %d read as an empty device" bit pos
      | Error _ -> ())
    image

let manifest_matrix name f =
  List.map
    (fun seed ->
      Alcotest.test_case (Printf.sprintf "%s, seed %d" name seed) `Quick (f seed))
    matrix_seeds

(* --- CRC-32 and the fused CRC + chain kernel ---

   The reference is the byte-at-a-time table loop the slicing-by-8 code
   replaced, kept here as the oracle.  Payloads cover every tail length
   0-7 behind whole words, unaligned offsets inside a larger string, and
   bytes with the top bit set (a chain word's bit 63 comes from one). *)

let reference_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let reference_crc crc s ~pos ~len =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := reference_table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

module Crc = Durable.Crc

let test_crc_known_answers () =
  check_int "123456789" 0xCBF43926 (Crc.string "123456789");
  check_int "empty" 0 (Crc.string "");
  check_int "a" 0xE8B7BE43 (Crc.string "a")

let test_crc_rejects_bad_ranges () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let s = "0123456789" in
  raises "negative pos" (fun () -> Crc.update 0 s ~pos:(-1) ~len:2);
  raises "negative len" (fun () -> Crc.update 0 s ~pos:0 ~len:(-1));
  raises "past the end" (fun () -> Crc.update 0 s ~pos:8 ~len:3);
  raises "huge len" (fun () -> Crc.update 0 s ~pos:1 ~len:max_int);
  raises "huge pos" (fun () -> Crc.update 0 s ~pos:max_int ~len:1);
  raises "fused past the end" (fun () -> Crc.update_chained 0 ~prev:0 ~chain:0 s ~pos:9 ~len:2);
  raises "fused negative pos" (fun () ->
      Crc.update_chained 0 ~prev:0 ~chain:0 s ~pos:(-1) ~len:1)

(* (prefix, body, suffix, split, prev): the body is checksummed in place,
   at offset [String.length prefix] of the concatenation. *)
let gen_crc_case =
  let open QCheck2.Gen in
  let bytes n = string_size ~gen:(map Char.chr (int_range 0 255)) n in
  let* prefix = bytes (int_range 0 15) in
  let* body = bytes (int_range 0 300) in
  let* suffix = bytes (int_range 0 15) in
  let* split = int_range 0 (String.length body) in
  let* prev = map (fun n -> n land ((1 lsl 62) - 1)) int in
  return (prefix, body, suffix, split, prev)

let print_crc_case (prefix, body, suffix, split, prev) =
  Printf.sprintf "prefix=%S body=%S suffix=%S split=%d prev=%d" prefix body suffix split prev

(* Every tail length: each case is checked on the body and on the seven
   bodies one to seven bytes shorter. *)
let prop_crc_matches_reference =
  QCheck2.Test.make ~name:"slicing-by-8 CRC = byte-at-a-time CRC" ~count:300
    ~print:print_crc_case gen_crc_case (fun (prefix, body, suffix, split, _) ->
      let image = prefix ^ body ^ suffix in
      let pos = String.length prefix in
      List.for_all
        (fun cut ->
          let len = String.length body - cut in
          len < 0
          ||
          let split = min split len in
          let whole = Crc.update 0 image ~pos ~len in
          whole = reference_crc 0 image ~pos ~len
          && Crc.update (Crc.update 0 image ~pos ~len:split) image ~pos:(pos + split)
               ~len:(len - split)
             = whole
          && Crc.string (String.sub image pos len) = whole)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* The frame header's ints, fed without a string: [prev] doubles as a
   random u64 and its low bits as the u32 and the u8. *)
let prop_int_feeders =
  QCheck2.Test.make ~name:"update_u8/u32/u64 = CRC of the LE bytes" ~count:300
    ~print:print_crc_case gen_crc_case (fun (prefix, _, _, _, n) ->
      let running = Crc.string prefix in
      let le width =
        String.init width (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF))
      in
      let reference width = reference_crc running (le width) ~pos:0 ~len:width in
      Crc.update_u8 running (n land 0xFF) = reference 1
      && Crc.update_u32 running (n land 0xFFFF_FFFF) = reference 4
      && Crc.update_u64 running n = reference 8)

let prop_fused_kernel =
  QCheck2.Test.make ~name:"fused kernel = reference CRC, flagged on a wrong chain" ~count:300
    ~print:print_crc_case gen_crc_case (fun (prefix, body, suffix, _, prev) ->
      let image = prefix ^ body ^ suffix in
      let pos = String.length prefix in
      List.for_all
        (fun cut ->
          let len = String.length body - cut in
          len < 0
          ||
          let running = Crc.string prefix in
          let crc = reference_crc running image ~pos ~len in
          let chain = C.step prev (String.sub image pos len) in
          Crc.update_chained running ~prev ~chain image ~pos ~len = crc
          && Crc.update_chained running ~prev ~chain:(chain lxor 1) image ~pos ~len
             = crc lor (1 lsl 32))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* --- the wire codecs: exact-size encoders vs the Buffer encoders ---

   [Audit_schema.to_wire] and [Site.encode_op] write each entry (and an
   entry op's header) into one exact-size allocation.  The references are
   the Buffer encoders they replaced, kept here as the oracle, with the
   u32/u64 byte loops they used. *)

let ref_put_u32 buffer n =
  for shift = 0 to 3 do
    Buffer.add_char buffer (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let ref_put_u64 buffer n =
  for shift = 0 to 7 do
    Buffer.add_char buffer (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let ref_add_field buffer s =
  let len = String.length s in
  if len > 0xFFFF then invalid_arg "Audit_schema.to_wire: field longer than 65535 bytes";
  Buffer.add_char buffer (Char.chr (len land 0xFF));
  Buffer.add_char buffer (Char.chr (len lsr 8));
  Buffer.add_string buffer s

let ref_to_wire (e : Schema.entry) =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer (Char.chr (Schema.op_to_int e.op));
  Buffer.add_char buffer (Char.chr (Schema.status_to_int e.status));
  ref_add_field buffer (string_of_int e.time);
  List.iter (ref_add_field buffer) [ e.user; e.data; e.purpose; e.authorized ];
  (match e.provenance with
  | None -> ()
  | Some p ->
    Buffer.add_char buffer 'P';
    ref_add_field buffer p.session;
    ref_add_field buffer p.request;
    ref_add_field buffer (match p.parent with Some l -> string_of_int l | None -> "");
    let changed = List.length p.changed in
    Buffer.add_char buffer (Char.chr (changed land 0xFF));
    Buffer.add_char buffer (Char.chr (changed lsr 8));
    List.iter (ref_add_field buffer) p.changed;
    ref_add_field buffer (C.to_hex p.integrity));
  Buffer.contents buffer

let ref_add_str buffer s =
  ref_put_u32 buffer (String.length s);
  Buffer.add_string buffer s

let ref_encode_op op =
  let buffer = Buffer.create 64 in
  (match op with
  | Site.Op_entry e ->
    Buffer.add_char buffer 'E';
    ref_add_str buffer (ref_to_wire e)
  | Site.Op_seq_entry (seq, e) ->
    Buffer.add_char buffer 'S';
    ref_put_u64 buffer seq;
    ref_add_str buffer (ref_to_wire e)
  | Site.Op_processed seq ->
    Buffer.add_char buffer 'P';
    ref_put_u64 buffer seq
  | Site.Op_quarantined (seq, reason, raw) ->
    Buffer.add_char buffer 'Q';
    ref_put_u64 buffer seq;
    ref_add_str buffer reason;
    ref_put_u32 buffer (List.length raw);
    List.iter
      (fun (k, v) ->
        ref_add_str buffer k;
        ref_add_str buffer v)
      raw
  | Site.Op_unquarantined seq ->
    Buffer.add_char buffer 'R';
    ref_put_u64 buffer seq
  | Site.Op_next next ->
    Buffer.add_char buffer 'N';
    ref_put_u64 buffer next);
  Buffer.contents buffer

(* Fields: usually short, sometimes empty, sometimes exactly the 65,535
   bytes the u16 length prefix can carry. *)
let gen_field =
  let open QCheck2.Gen in
  frequency
    [ (6, string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24));
      (2, return "");
      (1, return (String.make 0xFFFF 'f'));
    ]

let gen_int =
  QCheck2.Gen.(oneof [ int; return 0; return max_int; return min_int; int_range (-9) 9 ])

let gen_entry field =
  let open QCheck2.Gen in
  let* time = gen_int in
  let* op = oneofl [ Schema.Allow; Schema.Disallow ] in
  let* status = oneofl [ Schema.Regular; Schema.Exception_based ] in
  let* user = field and* data = field and* purpose = field in
  let* authorized = field in
  let e = Schema.entry ~time ~op ~user ~data ~purpose ~authorized ~status in
  let* provenance = bool in
  if not provenance then return e
  else
    let* session = field and* request = field in
    let* parent = opt gen_int in
    let* changed = list_size (int_range 0 3) field in
    return (Schema.with_provenance ~session ~request ?parent ~changed e)

let gen_op_of field =
  let open QCheck2.Gen in
  let* seq = gen_int in
  let* e = gen_entry field in
  let* reason = field in
  let* raw = list_size (int_range 0 3) (pair field field) in
  oneofl
    [ Site.Op_entry e;
      Site.Op_seq_entry (seq, e);
      Site.Op_processed seq;
      Site.Op_quarantined (seq, reason, raw);
      Site.Op_unquarantined seq;
      Site.Op_next seq;
    ]

let gen_op = gen_op_of gen_field

let print_op op = String.escaped (ref_encode_op op)

let prop_encoders_match_buffer_encoders =
  QCheck2.Test.make ~name:"to_wire and encode_op = the Buffer encoders" ~count:300
    ~print:print_op gen_op (fun op ->
      let wire_ok =
        match op with
        | Site.Op_entry e | Site.Op_seq_entry (_, e) ->
          Schema.to_wire e = ref_to_wire e
          && Bytes.sub_string (Schema.wire_bytes ~room:3 e) 3 (String.length (ref_to_wire e))
             = ref_to_wire e
        | _ -> true
      in
      wire_ok && Site.encode_op op = ref_encode_op op)

let test_oversized_field_raises () =
  let long = String.make 0x10000 'x' in
  let base =
    Schema.entry ~time:1 ~op:Schema.Allow ~user:"u" ~data:"referral" ~purpose:"treatment"
      ~authorized:"nurse" ~status:Schema.Regular
  in
  let expected = Invalid_argument "Audit_schema.to_wire: field longer than 65535 bytes" in
  let raises name f = Alcotest.check_raises name expected (fun () -> ignore (f ())) in
  List.iter
    (fun (name, e) ->
      raises (name ^ ": to_wire") (fun () -> Schema.to_wire e);
      raises (name ^ ": check_wire") (fun () -> Schema.check_wire e);
      raises (name ^ ": 'E' op") (fun () -> Site.encode_op (Site.Op_entry e));
      raises (name ^ ": 'S' op") (fun () -> Site.encode_op (Site.Op_seq_entry (3, e)));
      raises (name ^ ": reference") (fun () -> ref_to_wire e))
    [ ("user", { base with Schema.user = long });
      ("data", { base with Schema.data = long });
      ("purpose", { base with Schema.purpose = long });
      ("authorized", { base with Schema.authorized = long });
      ( "session",
        { base with
          Schema.provenance =
            Some
              { Schema.session = long; request = "r"; parent = None; changed = []; integrity = 0 };
        } );
    ]

(* --- decoder oracle ---

   Site's and the quarantine's op decoders and the manifest's catalogue
   decoder read through Frame's bounded reader.  Each must return exactly
   what its reference — the private reader it replaced, kept in
   Test_support.Codec_reference — returns: on valid payloads, on every
   truncation of one, on single-byte flips at every offset and on random
   strings.  Neither side may raise.  Fields are short here so that every
   truncation and flip of a payload stays cheap to try. *)

let gen_short_field =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))

let gen_quarantine_op =
  let open QCheck2.Gen in
  let* site = gen_short_field and* seq = gen_int and* reason = gen_short_field in
  let* raw = list_size (int_range 0 3) (pair gen_short_field gen_short_field) in
  oneofl [ Q.Op_add { Q.site; seq; raw; reason }; Q.Op_remove (site, seq); Q.Op_clear ]

(* A valid payload, then every proper prefix of it and, at every offset,
   the byte XORed with 0x01, 0x80 and [mask]. *)
let variants payload ~mask =
  let n = String.length payload in
  let flip i x =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) payload
  in
  (payload :: List.init n (String.sub payload 0))
  @ List.concat (List.init n (fun i -> [ flip i 0x01; flip i 0x80; flip i mask ]))

let gen_mask = QCheck2.Gen.int_range 1 255

(* The catalogue decoder is reached through [Manifest.decode]: a payload
   is framed as the manifest writes it, behind its magic, so only the
   catalogue can fail. *)
let manifest_magic = "PMAN0001"

let manifest_decode payload =
  Result.to_option
    (M.decode (manifest_magic ^ F.encode ~chain:(C.hash_string payload) payload))

let catalogue_payload t =
  match F.scan (M.encode t) ~pos:(String.length manifest_magic) with
  | F.Record { payload; _ } -> payload
  | F.End | F.Bad _ -> Alcotest.fail "manifest image does not scan"

let agree name decode reference s =
  match (decode s, reference s) with
  | a, b -> a = b || QCheck2.Test.fail_reportf "%s differs from its reference on %S" name s
  | exception e ->
    QCheck2.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) s

let decoders_agree s =
  agree "Site.decode_op" Site.decode_op Codec_ref.site_decode_op s
  && agree "Quarantine.decode_op" Q.decode_op Codec_ref.quarantine_decode_op s
  && agree "the catalogue decoder" manifest_decode Codec_ref.manifest_decode_payload s

let prop_decoders_match_reference =
  let open QCheck2.Gen in
  let gen =
    let* mask = gen_mask in
    let* payload =
      oneof
        [ map Site.encode_op (gen_op_of gen_short_field);
          map Q.encode_op gen_quarantine_op;
          map catalogue_payload gen_catalogue;
        ]
    in
    return (payload, mask)
  in
  QCheck2.Test.make ~name:"payload decoders = their references, valid and damaged" ~count:300
    ~print:(fun (payload, mask) -> Printf.sprintf "%S mask %d" payload mask)
    gen
    (fun (payload, mask) -> List.for_all decoders_agree (variants payload ~mask))

(* Random strings, half of them led by an opcode so the decoders get past
   their first byte. *)
let prop_decoders_match_reference_on_noise =
  let open QCheck2.Gen in
  let bytes = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 48) in
  let opcode = oneofl [ "A"; "C"; "E"; "N"; "P"; "Q"; "R"; "S" ] in
  let gen = oneof [ bytes; map2 ( ^ ) opcode bytes ] in
  QCheck2.Test.make ~name:"payload decoders = their references on random strings" ~count:1000
    ~print:String.escaped gen decoders_agree

(* --- golden device images ---

   A fixed script writes every kind of durable image this code base
   produces, and each device's stable bytes must hash to the digests
   below.  The site WAL carries all six op kinds ('P' in its checkpoint
   image), an entry with provenance, three seals and a second WAL
   generation, then a [Partial_header] crash whose survivor is cut at a
   write boundary, so the image also pins one device write per record.
   The shard store has two sites over six buckets, snapshot images from a
   checkpoint, one site rebuilt wholesale after a damaged shard, and a
   manifest sync.  Any change to the framing, the CRC, the chain, the
   wire codecs or the write boundaries shows up here. *)

let golden_entry ?(user = "u1") ?(op = Schema.Allow) ?(status = Schema.Regular) time =
  Schema.entry ~time ~op ~user ~data:"referral" ~purpose:"treatment" ~authorized:"nurse"
    ~status

let golden_raw ~time ~role =
  [ ("time", string_of_int time); ("op", "allow"); ("user", Printf.sprintf "r%d" time);
    ("data", "referral"); ("purpose", "treatment"); (role, "nurse"); ("status", "btg") ]

let image_digest d = Digest.to_hex (Digest.string (D.contents d))

let golden_images () =
  let log = L.create ~seed:4242 () in
  let site = Site.create ~name:"golden" () in
  Site.attach_wal site log;
  Site.ingest_entries site
    [ golden_entry 1;
      golden_entry ~user:"u2" ~status:Schema.Exception_based 2;
      golden_entry ~op:Schema.Disallow 3;
    ];
  Site.ingest_entry site
    (Schema.with_provenance ~session:"s1" ~request:"r1" ~parent:2 ~changed:[ "purpose" ]
       (golden_entry 4));
  ignore
    (Site.ingest_raw_all site
       [ golden_raw ~time:5 ~role:"authorized";
         golden_raw ~time:6 ~role:"rolle";
         golden_raw ~time:7 ~role:"authorized";
       ]);
  Site.sync_wal site;
  Site.set_mapping site
    (Audit_mgmt.Mapping.create ~column_aliases:[ ("rolle", "authorized") ] ());
  ignore (Site.reprocess_quarantined site);
  ignore (Site.ingest_raw_all site [ golden_raw ~time:8 ~role:"ruolo" ]);
  Site.sync_wal site;
  L.checkpoint log;
  Site.ingest_entries site [ golden_entry 9; golden_entry ~user:"u3" 10 ];
  ignore (Site.ingest_raw_all site [ golden_raw ~time:11 ~role:"authorized" ]);
  Site.sync_wal site;
  Site.ingest_entries site [ golden_entry 12; golden_entry 13; golden_entry ~user:"u4" 14 ];
  let wal = L.wal_device log and snapshot = L.snapshot_device log in
  D.crash wal ~point:D.Partial_header;
  let site, _, _ = Site.open_durable ~name:"golden" (L.of_devices ~wal ~snapshot) in
  Site.ingest_entry site (golden_entry 15);
  Site.sync_wal site;
  let store = Shards.create ~bucket_ms:100 ~seed:31 () in
  let stream site n =
    List.init n (fun i -> golden_entry ~user:(Printf.sprintf "%s%d" site i) (i * 30))
  in
  ignore (Shards.archive_site store ~site:"a" (stream "a" 12));
  ignore (Shards.archive_site store ~site:"b" (stream "b" 12));
  Shards.checkpoint store;
  ignore (Shards.archive_site store ~site:"a" (stream "a" 16));
  ignore (Shards.archive_site store ~site:"b" (stream "b" 16));
  Shards.sync store;
  let _, b_wal, _ = List.find (fun (name, _, _) -> name = "b#4") (Shards.devices store) in
  D.corrupt_stable b_wal ~pos:(D.durable_size b_wal / 2) ~bit:3;
  let store, _ =
    Shards.reopen ~bucket_ms:100 ~seed:31 ~manifest:(Shards.manifest_device store)
      ~shards:(Shards.devices store) ()
  in
  ignore (Shards.archive_site store ~site:"a" (stream "a" 18));
  let b = Shards.archive_site store ~site:"b" (stream "b" 18) in
  check_bool "site b rebuilt after its damaged shard" true b.Shards.rebuilt;
  Shards.sync store;
  [ ("site.wal", image_digest wal); ("site.snapshot", image_digest snapshot);
    ("manifest", image_digest (Shards.manifest_device store)) ]
  @ List.concat_map
      (fun (name, w, s) ->
        [ (name ^ ".wal", image_digest w); (name ^ ".snapshot", image_digest s) ])
      (Shards.devices store)

let golden_digests =
  [ ("site.wal", "d5c78cd081ce5791f34919db66da186a");
    ("site.snapshot", "ae38405c1f3139aed52eed422e6d4c45");
    ("manifest", "760ff62735348cb4f65363ea86a91375");
    ("a#0.wal", "5a449a1990ea1126fda859c910a25abb");
    ("a#0.snapshot", "8dc85a8dffb3e116c985527f00b20496");
    ("a#1.wal", "1a89945fbddfdd88218973900dc497c7");
    ("a#1.snapshot", "0453cb292b199e6023c334ecff7a82c8");
    ("a#2.wal", "98159408dfd76a5787896675ed856f90");
    ("a#2.snapshot", "6dc829978087db9d21a8057766db3e8d");
    ("a#3.wal", "7f95044239a5f41d4e71642cff5b56a6");
    ("a#3.snapshot", "476afbbbecad4e3f42ac2cb1cce50d19");
    ("a#4.wal", "11bb43083fb93195e52321ae4aae2b4d");
    ("a#4.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("a#5.wal", "8f3752241b9f7cc1c9df7dc178655203");
    ("a#5.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#0.wal", "32b87e33b08b30036747411d609a0401");
    ("b#0.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#1.wal", "efc96eb40cd56388cd2a13be35edf39b");
    ("b#1.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#2.wal", "bee9414f49bb55c2da49b34083906292");
    ("b#2.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#3.wal", "f4556ecad2bf53507708ef0bd2a932fd");
    ("b#3.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#4.wal", "55441df0e23ee60e69226acc9b1e9f38");
    ("b#4.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
    ("b#5.wal", "8b359f4f3ccfed56d0abaf22277e5e6d");
    ("b#5.snapshot", "d41d8cd98f00b204e9800998ecf8427e");
  ]

let test_golden_images () =
  Alcotest.(check (list (pair string string)))
    "device image digests" golden_digests (golden_images ())

(* The central pair on its own durable logs.  The audit store's WAL and
   snapshot carry entries with and without provenance, a checkpoint, a
   second WAL generation and a reopen that replays both before appending;
   the transit quarantine's log carries 'A', 'R' and 'C' ops on both
   sides of a checkpoint (whose image is 'A' ops) and a reopen. *)
let central_images () =
  let log = L.create ~seed:5151 () in
  let store, _, _ = Hdb.Audit_store.open_durable log in
  let with_prov time =
    Schema.with_provenance ~session:"s9" ~request:(Printf.sprintf "r%d" time) ~parent:1
      ~changed:[ "data"; "purpose" ] (golden_entry time)
  in
  List.iter (Hdb.Audit_store.append store)
    [ golden_entry 1; with_prov 2; golden_entry ~user:"u2" ~op:Schema.Disallow 3 ];
  L.sync log;
  L.checkpoint log;
  List.iter (Hdb.Audit_store.append store)
    [ golden_entry ~status:Schema.Exception_based 4; with_prov 5 ];
  L.sync log;
  let log = restart log in
  let reopened, _, _ = Hdb.Audit_store.open_durable log in
  check_int "the audit store replays all five" 5 (Hdb.Audit_store.length reopened);
  Hdb.Audit_store.append reopened (golden_entry ~user:"u3" 6);
  L.sync log;
  let qlog = L.create ~seed:6161 () in
  let q, _, _ = Q.open_durable qlog in
  let raw time = golden_raw ~time ~role:"rolle" in
  Q.add q ~site:"a" ~seq:1 ~raw:(raw 1) ~reason:"unmappable";
  Q.add q ~site:"b" ~seq:2 ~raw:[] ~reason:"corrupted in transit";
  Q.remove q ~site:"a" ~seq:1;
  L.sync qlog;
  Q.clear q;
  Q.add q ~site:"a" ~seq:3 ~raw:(raw 3) ~reason:"unmappable";
  Q.add q ~site:"c" ~seq:4 ~raw:(raw 4) ~reason:"bad time";
  L.sync qlog;
  L.checkpoint qlog;
  Q.add q ~site:"b" ~seq:5 ~raw:(raw 5) ~reason:"unmappable";
  Q.remove q ~site:"a" ~seq:3;
  Q.clear q;
  Q.add q ~site:"c" ~seq:6 ~raw:(raw 6) ~reason:"bad time";
  L.sync qlog;
  let qlog = restart qlog in
  let q, _, _ = Q.open_durable qlog in
  check_int "the quarantine replays to one item" 1 (Q.length q);
  Q.add q ~site:"a" ~seq:7 ~raw:(raw 7) ~reason:"unmappable";
  L.sync qlog;
  [ ("audit_store.wal", image_digest (L.wal_device log));
    ("audit_store.snapshot", image_digest (L.snapshot_device log));
    ("quarantine.wal", image_digest (L.wal_device qlog));
    ("quarantine.snapshot", image_digest (L.snapshot_device qlog));
  ]

let central_digests =
  [ ("audit_store.wal", "10013c997b9845058a984babe3e15c7a");
    ("audit_store.snapshot", "e76099fdd6a0ba9fd4112f84ec734473");
    ("quarantine.wal", "8c982f7e2a608ef5d2fde0e238675b3c");
    ("quarantine.snapshot", "1f4a26f2d334b06179ab71cb7d25f43d");
  ]

let test_central_images () =
  Alcotest.(check (list (pair string string)))
    "central pair digests" central_digests (central_images ())

(* The system's four durable walks over one federation: a central pair on
   its own logs, two member sites each on its own WAL, and an attached
   archive.  The logs are listed here by hand — the central audit log, the
   transit quarantine's log and each site's WAL — and every one of them,
   every archive shard and the manifest must be reached: group commit
   leaves each log with pending records, [sync_durable] drains every log
   and syncs every shard and the manifest, auto-checkpointing fires on
   every log and stops on every log, and [checkpoint_durable] leaves every
   WAL at its bare header.  The final device images are pinned. *)
let system_walk_images () =
  let module Sys_ = Prima_system.System in
  let audit_log = L.create ~seed:7171 () and quarantine_log = L.create ~seed:7272 () in
  let system =
    Sys_.create
      ~storage:{ Sys_.audit_log; quarantine_log }
      ~vocab:(Vocabulary.Samples.figure1 ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
  in
  let sites =
    List.map
      (fun (name, seed) ->
        let site = Site.create ~name () in
        Site.attach_wal site (L.create ~seed ());
        Sys_.add_site system site;
        site)
      [ ("a", 7373); ("b", 7474) ]
  in
  let archive = Shards.create ~bucket_ms:100 ~seed:75 () in
  Sys_.attach_archive system archive;
  let store = Hdb.Control_center.audit_store (Sys_.control system) in
  let transit = Audit_mgmt.Federation.transit_quarantine (Sys_.federation system) in
  let logs =
    [ ("audit", audit_log); ("quarantine", quarantine_log) ]
    @ List.map (fun site -> (Site.name site, Option.get (Site.wal site))) sites
  in
  let each f = List.iter (fun (name, log) -> f name log) logs in
  let clock = ref 0 in
  (* one more record in every log [n] times; the quarantined items belong
     to no member, so no consolidation takes them back *)
  let append_everywhere n =
    for _ = 1 to n do
      incr clock;
      let time = !clock in
      Hdb.Audit_store.append store (golden_entry ~user:"c" time);
      Q.add transit ~site:"x" ~seq:time ~raw:[ ("time", string_of_int time) ] ~reason:"corrupt";
      List.iter (fun site -> Site.ingest_entry site (golden_entry ~user:(Site.name site) time)) sites
    done
  in
  let shard_devices () =
    Shards.manifest_device archive
    :: List.map (fun (_, wal, _) -> wal) (Shards.devices archive)
  in
  append_everywhere 10;
  ignore (Sys_.sync_audit system);
  check_int "every member archived" 3 (Shards.shard_count archive);
  Sys_.set_group_commit system true;
  append_everywhere 5;
  each (fun name log -> check_bool (name ^ " has pending records") true (L.pending_records log > 0));
  let syncs = List.map D.syncs (shard_devices ()) in
  Sys_.sync_durable system;
  each (fun name log -> check_int (name ^ " drained") 0 (L.pending_records log));
  List.iter2
    (fun before d -> check_bool "every shard and the manifest synced" true (D.syncs d > before))
    syncs (shard_devices ());
  let fired () = List.map (fun (_, log) -> L.auto_checkpoints log) logs in
  let before = fired () in
  Sys_.set_auto_checkpoint system true;
  append_everywhere 70;
  List.iter2
    (fun (name, _) (a, b) -> check_bool (name ^ " compacted itself") true (b > a))
    logs
    (List.combine before (fired ()));
  Sys_.set_auto_checkpoint system false;
  let before = fired () in
  append_everywhere 70;
  check_bool "no log compacts itself once it is off" true (fired () = before);
  ignore (Sys_.sync_audit system);
  Sys_.checkpoint_durable system;
  each (fun name log ->
      check_int (name ^ " WAL truncated to its header") W.header_size
        (D.durable_size (L.wal_device log)));
  List.iter
    (fun (name, wal, _) ->
      check_int (name ^ " WAL truncated to its header") W.header_size (D.durable_size wal))
    (Shards.devices archive);
  List.concat_map
    (fun (name, log) ->
      [ (name ^ ".wal", image_digest (L.wal_device log));
        (name ^ ".snapshot", image_digest (L.snapshot_device log)) ])
    logs
  @ ("manifest", image_digest (Shards.manifest_device archive))
    :: List.concat_map
         (fun (name, w, s) ->
           [ (name ^ ".wal", image_digest w); (name ^ ".snapshot", image_digest s) ])
         (Shards.devices archive)

let system_walk_digests =
  [ ("audit.wal", "ca9ee82e197091b8c4318c95cea37e88");
    ("audit.snapshot", "d764fa280aa16c271742aeb11cdb3d4f");
    ("quarantine.wal", "ee3146eac4372cd123dcdda9d2b814c3");
    ("quarantine.snapshot", "0eb2ea4ec2c1764ea6dbc56606dc2411");
    ("a.wal", "2cd8be2741bc7f64fa7a9e16b8701964");
    ("a.snapshot", "3153efceed1ec4b5f392bc77f069b651");
    ("b.wal", "6830140ce719c5f2adb73f91f376a90a");
    ("b.snapshot", "927b0b471020284e5e0b1b71ff371c0b");
    ("manifest", "03d7b3d8f4d5b56f28ea7b6352d0e91d");
    ("clinical-db#0.wal", "f77be31c019224e40052f1992bbc6a00");
    ("clinical-db#0.snapshot", "44bd1901f10f018966962ef238fabcf0");
    ("clinical-db#1.wal", "3d53abe45c52bed3ca4ec018f984e631");
    ("clinical-db#1.snapshot", "5431178ee4075ecfeda058d673114307");
    ("a#0.wal", "61233696b6ab0a5b7de82a6ff6e4e18a");
    ("a#0.snapshot", "71a28995432fc0c52b144dc597e04f90");
    ("a#1.wal", "122f24e25f1341789cabf600ce7ac80c");
    ("a#1.snapshot", "806603ee76e21fc4fe1fd37fcffbaf83");
    ("b#0.wal", "161c35846c1976a5c8886be2cd64a853");
    ("b#0.snapshot", "b966eb56d790eef7ab4ee155d052ef8e");
    ("b#1.wal", "21ce99406e63d4b839c11b4bb9b8d772");
    ("b#1.snapshot", "205ee415fafd95704485219e8d593069");
  ]

let test_system_walks () =
  Alcotest.(check (list (pair string string)))
    "system walk digests" system_walk_digests (system_walk_images ())

(* A log takes its checkpoint image from the store that attached it; with
   none attached there is nothing to write, and the log is left as it
   was. *)
let test_checkpoint_needs_a_store () =
  let log = L.create ~seed:7676 () in
  ignore (L.append log (payload 0));
  L.sync log;
  Alcotest.check_raises "manual checkpoint"
    (Invalid_argument "Durable.Log.checkpoint: no store attached") (fun () -> L.checkpoint log);
  Alcotest.check_raises "policy"
    (Invalid_argument "Durable.Log.set_auto_checkpoint: no store attached") (fun () ->
      L.set_auto_checkpoint log (Some (L.checkpoint_every ~records:1 ())));
  L.set_auto_checkpoint log None;
  ignore (L.append log (payload 1));
  L.sync log;
  check_int "no snapshot written" 0 (D.durable_size (L.snapshot_device log));
  check_bool "the WAL kept both records" true
    ((L.open_or_recover (restart log)).R.entries = [ payload 0; payload 1 ])

let () =
  Alcotest.run "durable"
    [ ("crash-matrix", matrix "prefix" test_crash_matrix);
      ("resume", matrix "resume" test_resume_after_crash);
      ("oracle", [ QCheck_alcotest.to_alcotest ~long:false prop_recovery_matches_oracle ]);
      ( "checkpoint",
        [ Alcotest.test_case "wal -> snapshot -> wal" `Quick test_wal_snapshot_wal_roundtrip;
          Alcotest.test_case "crash after checkpoint" `Quick test_crash_after_checkpoint;
          Alcotest.test_case "overlapping wal not duplicated" `Quick
            test_overlapping_wal_not_duplicated;
          Alcotest.test_case "needs an attached store" `Quick test_checkpoint_needs_a_store;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "survives restart" `Quick test_quarantine_survives_restart;
          Alcotest.test_case "checkpoint + crash" `Quick test_quarantine_checkpoint_and_crash;
          Alcotest.test_case "clear is durable" `Quick test_quarantine_clear_is_durable;
        ] );
      ( "audit-store",
        [ Alcotest.test_case "survives restart" `Quick test_audit_store_survives_restart ] );
      ( "auto-checkpoint",
        [ Alcotest.test_case "records trigger" `Quick test_auto_checkpoint_records;
          Alcotest.test_case "bytes trigger" `Quick test_auto_checkpoint_bytes;
          Alcotest.test_case "audit store compaction" `Quick
            test_audit_store_auto_checkpoint;
          Alcotest.test_case "quarantine compaction" `Quick
            test_quarantine_auto_checkpoint;
        ] );
      ("auto-checkpoint-crash", matrix "auto-ckpt" test_crash_after_auto_checkpoint);
      ( "tamper",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "corrupted length, seed %d" seed)
              `Quick
              (test_tamper_corrupted_length seed))
          matrix_seeds
        @ [ Alcotest.test_case "mutilated header magic" `Quick test_tamper_header_magic;
            Alcotest.test_case "mutilated base chain" `Quick test_tamper_base_chain;
            Alcotest.test_case "header u64 high bits" `Quick test_tamper_header_high_bits;
            Alcotest.test_case "snapshot anchor mismatch" `Quick
              test_tamper_snapshot_anchor;
            Alcotest.test_case "chain hex round-trip" `Quick test_chain_hex_roundtrip;
            QCheck_alcotest.to_alcotest ~long:false prop_single_bitflip_caught;
          ] );
      ( "group-commit",
        Alcotest.test_case "coalesces into one device write" `Quick
          test_group_commit_coalesces
        :: Alcotest.test_case "switch-off flushes" `Quick test_group_commit_off_flushes
        :: Alcotest.test_case "mode survives checkpoint" `Quick
             test_group_commit_survives_checkpoint
        :: matrix "gc" test_group_commit_crash_matrix );
      ( "reprocess",
        [ Alcotest.test_case "idempotent across crash before reprocess" `Quick
            test_quarantine_reprocess_idempotent_across_crash ] );
      ( "manifest",
        (QCheck_alcotest.to_alcotest ~long:false prop_manifest_roundtrip
         :: manifest_matrix "write/read/replace" test_manifest_write_read)
        @ manifest_matrix "every truncation unreadable" test_manifest_truncation
        @ manifest_matrix "every bit flip unreadable" test_manifest_bitflip );
      ( "crc",
        [ Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          Alcotest.test_case "bad ranges raise" `Quick test_crc_rejects_bad_ranges;
          QCheck_alcotest.to_alcotest ~long:false prop_crc_matches_reference;
          QCheck_alcotest.to_alcotest ~long:false prop_int_feeders;
          QCheck_alcotest.to_alcotest ~long:false prop_fused_kernel;
        ] );
      ( "codec",
        [ QCheck_alcotest.to_alcotest ~long:false prop_encoders_match_buffer_encoders;
          Alcotest.test_case "65,536-byte field raises" `Quick test_oversized_field_raises;
          QCheck_alcotest.to_alcotest ~long:false prop_decoders_match_reference;
          QCheck_alcotest.to_alcotest ~long:false prop_decoders_match_reference_on_noise;
        ] );
      ( "golden",
        [ Alcotest.test_case "device images match the committed digests" `Quick
            test_golden_images;
          Alcotest.test_case "central pair images match the committed digests" `Quick
            test_central_images;
        ] );
      ( "system",
        [ Alcotest.test_case "dropped tail -> lower bound" `Quick
            test_system_recovery_and_lower_bound;
          Alcotest.test_case "tamper -> lower bound" `Quick
            test_system_tamper_forces_lower_bound;
          Alcotest.test_case "adaptive threshold" `Quick test_adaptive_threshold_scales;
          Alcotest.test_case "durable walks reach every log" `Quick test_system_walks;
        ] );
    ]
