(* Tests for Audit Management: schema mappings, sites, the consolidated
   federation view and the audit-to-policy bridge. *)

open Audit_mgmt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let entry ?(time = 1) ?(op = Hdb.Audit_schema.Allow) ?(user = "u") ?(data = "referral")
    ?(purpose = "treatment") ?(authorized = "nurse")
    ?(status = Hdb.Audit_schema.Regular) () =
  Hdb.Audit_schema.entry ~time ~op ~user ~data ~purpose ~authorized ~status

(* --- to_policy --- *)

let test_rule_of_entry () =
  let rule = To_policy.rule_of_entry (entry ~time:3 ~status:Hdb.Audit_schema.Exception_based ()) in
  check_int "seven terms" 7 (Prima_core.Rule.cardinality rule);
  Alcotest.(check (option string)) "status" (Some "0")
    (Prima_core.Rule.find_attr rule "status")

let test_entry_of_rule_roundtrip () =
  let e = entry ~time:9 ~op:Hdb.Audit_schema.Disallow () in
  let rule = To_policy.rule_of_entry e in
  match To_policy.entry_of_rule rule with
  | Some e' -> check_bool "roundtrip" true (Hdb.Audit_schema.equal e e')
  | None -> Alcotest.fail "roundtrip failed"

let test_entry_of_rule_partial () =
  let rule = Prima_core.Rule.of_assoc [ ("data", "x") ] in
  check_bool "partial rejected" true (To_policy.entry_of_rule rule = None)

let test_pattern_rule_projection () =
  let rule = To_policy.pattern_rule_of_entry (entry ()) in
  check_int "three terms" 3 (Prima_core.Rule.cardinality rule)

(* --- mapping --- *)

let legacy_mapping () =
  Mapping.create
    ~column_aliases:[ ("ts", "time"); ("action", "op"); ("who", "user"); ("category", "data");
                      ("reason", "purpose"); ("role", "authorized"); ("mode", "status") ]
    ~value_synonyms:[ (("authorized", "rn"), "nurse"); (("data", "xray"), "x-ray") ]
    ()

let legacy_row =
  [ ("ts", "17"); ("action", "GRANTED"); ("who", "Olga"); ("category", "XRAY");
    ("reason", "Treatment"); ("role", "RN"); ("mode", "BTG") ]

let test_mapping_normalises () =
  let e = Mapping.apply (legacy_mapping ()) legacy_row in
  check_int "time" 17 e.Hdb.Audit_schema.time;
  check_bool "granted is allow" true (e.Hdb.Audit_schema.op = Hdb.Audit_schema.Allow);
  check_string "user lowercased" "olga" e.Hdb.Audit_schema.user;
  check_string "synonym applied" "x-ray" e.Hdb.Audit_schema.data;
  check_string "role synonym" "nurse" e.Hdb.Audit_schema.authorized;
  check_bool "btg is exception" true
    (e.Hdb.Audit_schema.status = Hdb.Audit_schema.Exception_based)

let test_mapping_missing_attribute () =
  let incomplete = List.filter (fun (k, _) -> k <> "who") legacy_row in
  Alcotest.check_raises "missing" (Mapping.Unmappable "missing attribute user") (fun () ->
      ignore (Mapping.apply (legacy_mapping ()) incomplete))

let test_mapping_bad_time () =
  let bad = ("ts", "yesterday") :: List.remove_assoc "ts" legacy_row in
  Alcotest.check_raises "bad time" (Mapping.Unmappable "cannot read time value \"yesterday\"")
    (fun () -> ignore (Mapping.apply (legacy_mapping ()) bad))

(* Regression: synonym keys are matched case-insensitively.  Before the
   fix, [create] stored keys verbatim while [apply] lowercased raw values
   first, so a synonym registered as ("RN" -> "nurse") never matched. *)
let test_mapping_synonym_case_insensitive () =
  let mapping =
    Mapping.create
      ~value_synonyms:[ (("authorized", "RN"), "nurse"); (("Data", "XRAY"), "x-ray") ]
      ()
  in
  check_string "uppercase synonym key matches" "nurse"
    (Mapping.standard_value mapping ~attr:"authorized" "rn");
  check_string "attr case irrelevant" "x-ray" (Mapping.standard_value mapping ~attr:"data" "xray");
  let raw =
    [ ("time", "3"); ("op", "1"); ("user", "u"); ("data", "XRAY");
      ("purpose", "treatment"); ("authorized", "RN"); ("status", "1") ]
  in
  let e = Mapping.apply mapping raw in
  check_string "synonym applied end-to-end" "nurse" e.Hdb.Audit_schema.authorized;
  check_string "data synonym applied end-to-end" "x-ray" e.Hdb.Audit_schema.data

let test_mapping_identity () =
  let raw =
    [ ("time", "5"); ("op", "1"); ("user", "u"); ("data", "referral");
      ("purpose", "treatment"); ("authorized", "nurse"); ("status", "1") ]
  in
  let e = Mapping.apply Mapping.identity raw in
  check_int "time" 5 e.Hdb.Audit_schema.time

(* --- site --- *)

let test_site_ingest () =
  let site = Site.create ~name:"icu" () in
  Site.ingest_entries site [ entry ~time:1 (); entry ~time:2 () ];
  check_int "two" 2 (Site.length site);
  check_string "name" "icu" (Site.name site)

let test_site_legacy_raw () =
  let site = Site.create ~mapping:(legacy_mapping ()) ~name:"legacy" () in
  Site.ingest_raw site legacy_row;
  check_int "ingested" 1 (Site.length site);
  check_string "normalised" "nurse" (List.hd (Site.entries site)).Hdb.Audit_schema.authorized

(* A raw row in the standard schema; [broken] fields are unreadable. *)
let raw_row ?(time = "1") ?(op = "1") ?(user = "u") () =
  [ ("time", time); ("op", op); ("user", user); ("data", "referral");
    ("purpose", "treatment"); ("authorized", "nurse"); ("status", "1") ]

(* Atomic-per-record: a malformed record mid-batch no longer aborts after
   partial ingestion — records before AND after it are ingested, the bad
   one is quarantined. *)
let test_site_batch_atomic_per_record () =
  let site = Site.create ~name:"icu" () in
  let summary =
    Site.ingest_raw_all site
      [ raw_row ~time:"1" (); raw_row ~time:"bogus" (); raw_row ~time:"3" () ]
  in
  check_int "two ingested" 2 summary.Site.ingested;
  check_int "one quarantined" 1 summary.Site.quarantined;
  check_int "no duplicates" 0 summary.Site.duplicates;
  check_int "store has both good records" 2 (Site.length site);
  check_int "quarantine holds the bad one" 1 (Site.quarantined_count site);
  Alcotest.(check (list int)) "good records on both sides of the failure" [ 1; 3 ]
    (List.map (fun e -> e.Hdb.Audit_schema.time) (Site.entries site))

(* Exactly-once: re-submitting a batch at the same first_seq is a no-op for
   records already ingested or quarantined. *)
let test_site_batch_exactly_once () =
  let site = Site.create ~name:"icu" () in
  let batch = [ raw_row ~time:"1" (); raw_row ~time:"bogus" (); raw_row ~time:"3" () ] in
  let first = Site.ingest_raw_batch ~first_seq:0 site batch in
  check_int "first pass ingests" 2 first.Site.ingested;
  let retry = Site.ingest_raw_batch ~first_seq:0 site batch in
  check_int "retry ingests nothing" 0 retry.Site.ingested;
  check_int "retry quarantines nothing new" 0 retry.Site.quarantined;
  check_int "all three are duplicates" 3 retry.Site.duplicates;
  check_int "store unchanged" 2 (Site.length site);
  check_int "quarantine unchanged" 1 (Site.quarantined_count site)

(* Quarantine lifecycle: a mapping fix lets quarantined records reprocess,
   with their original seqs, and without double ingestion. *)
let test_site_reprocess_after_mapping_fix () =
  let site = Site.create ~name:"legacy" () in
  let bad = [ raw_row ~op:"granted-maybe" () ] in
  let summary = Site.ingest_raw_all site bad in
  check_int "quarantined" 1 summary.Site.quarantined;
  (* Still broken: reprocessing returns it to quarantine. *)
  let stuck = Site.reprocess_quarantined site in
  check_int "still quarantined" 1 stuck.Site.quarantined;
  check_int "store still empty" 0 (Site.length site);
  (* Fix the mapping, then reprocess. *)
  Site.set_mapping site
    (Mapping.create ~value_synonyms:[ (("op", "granted-maybe"), "granted") ] ());
  let fixed = Site.reprocess_quarantined site in
  check_int "reprocessed" 1 fixed.Site.ingested;
  check_int "quarantine drained" 0 (Site.quarantined_count site);
  check_int "ingested once" 1 (Site.length site);
  (* A second reprocess or batch retry cannot double-ingest. *)
  let again = Site.reprocess_quarantined site in
  check_int "nothing left" 0 (Site.summary_total again);
  let replay = Site.ingest_raw_batch ~first_seq:0 site bad in
  check_int "replay is a duplicate" 1 replay.Site.duplicates;
  check_int "still ingested once" 1 (Site.length site)

(* --- federation --- *)

let test_federation_merges_by_time () =
  let a = Site.create ~name:"a" () in
  let b = Site.create ~name:"b" () in
  Site.ingest_entries a [ entry ~time:1 ~user:"a1" (); entry ~time:5 ~user:"a5" () ];
  Site.ingest_entries b [ entry ~time:2 ~user:"b2" (); entry ~time:4 ~user:"b4" () ];
  let fed = Federation.of_sites [ a; b ] in
  let merged = Federation.consolidated fed in
  Alcotest.(check (list string)) "time order" [ "a1"; "b2"; "b4"; "a5" ]
    (List.map (fun e -> e.Hdb.Audit_schema.user) merged)

let test_federation_tie_stability () =
  let a = Site.create ~name:"a" () in
  let b = Site.create ~name:"b" () in
  Site.ingest_entries a [ entry ~time:3 ~user:"first" () ];
  Site.ingest_entries b [ entry ~time:3 ~user:"second" () ];
  let merged = Federation.consolidated (Federation.of_sites [ a; b ]) in
  Alcotest.(check (list string)) "site order on ties" [ "first"; "second" ]
    (List.map (fun e -> e.Hdb.Audit_schema.user) merged)

let test_federation_unsorted_site () =
  let a = Site.create ~name:"a" () in
  Site.ingest_entries a [ entry ~time:9 (); entry ~time:1 (); entry ~time:5 () ];
  let merged = Federation.consolidated (Federation.of_sites [ a ]) in
  Alcotest.(check (list int)) "sorted defensively" [ 1; 5; 9 ]
    (List.map (fun e -> e.Hdb.Audit_schema.time) merged)

let test_federation_window () =
  let a = Site.create ~name:"a" () in
  Site.ingest_entries a (List.init 10 (fun i -> entry ~time:(i + 1) ()));
  let fed = Federation.of_sites [ a ] in
  check_int "window" 4 (List.length (Federation.window fed ~time_from:3 ~time_to:6))

let test_federation_empty () =
  let fed = Federation.create () in
  check_int "no entries" 0 (List.length (Federation.consolidated fed));
  check_int "empty policy" 0 (Prima_core.Policy.cardinality (Federation.to_policy fed))

let test_federation_window_boundaries () =
  let a = Site.create ~name:"a" () in
  Site.ingest_entries a [ entry ~time:1 (); entry ~time:5 (); entry ~time:9 () ];
  let fed = Federation.of_sites [ a ] in
  check_int "inclusive both ends" 3 (List.length (Federation.window fed ~time_from:1 ~time_to:9));
  check_int "point window" 1 (List.length (Federation.window fed ~time_from:5 ~time_to:5));
  check_int "empty window" 0 (List.length (Federation.window fed ~time_from:6 ~time_to:4))

let test_federation_to_policy () =
  let a = Site.create ~name:"a" () in
  Site.ingest_entries a [ entry ~time:1 (); entry ~time:2 () ];
  let p = Federation.to_policy (Federation.of_sites [ a ]) in
  check_int "two rules" 2 (Prima_core.Policy.cardinality p);
  check_bool "audit source" true (Prima_core.Policy.source p = Prima_core.Policy.Audit_log)

let test_federation_totals () =
  let a = Site.create ~name:"a" () in
  let b = Site.create ~name:"b" () in
  Site.ingest_entries a [ entry () ];
  Site.ingest_entries b [ entry (); entry ~time:2 () ];
  let fed = Federation.create () in
  Federation.add_site fed a;
  Federation.add_site fed b;
  check_int "three total" 3 (Federation.total_entries fed);
  check_bool "lookup" true (Option.is_some (Federation.site fed "b"));
  check_bool "missing" true (Federation.site fed "zzz" = None)

(* The legacy-site end-to-end: raw rows through mapping, federation, policy,
   refinement sees them like native entries. *)
let test_federation_heterogeneous_end_to_end () =
  let modern = Site.create ~name:"modern" () in
  Site.ingest_entries modern
    (List.filteri (fun i _ -> i < 5) (Workload.Scenario.table1_entries ()));
  let legacy = Site.create ~mapping:(legacy_mapping ()) ~name:"legacy" () in
  List.iteri
    (fun i e ->
      Site.ingest_raw legacy
        [ ("ts", string_of_int e.Hdb.Audit_schema.time);
          ("action", if e.Hdb.Audit_schema.op = Hdb.Audit_schema.Allow then "granted" else "denied");
          ("who", e.Hdb.Audit_schema.user);
          ("category", e.Hdb.Audit_schema.data);
          ("reason", e.Hdb.Audit_schema.purpose);
          ("role", if i mod 2 = 0 then "RN" else e.Hdb.Audit_schema.authorized);
          ("mode",
           if e.Hdb.Audit_schema.status = Hdb.Audit_schema.Regular then "regular" else "btg");
        ])
    (List.filteri (fun i _ -> i >= 5) (Workload.Scenario.table1_entries ()));
  let fed = Federation.of_sites [ modern; legacy ] in
  check_int "all ten consolidated" 10 (List.length (Federation.consolidated fed));
  let p_al = Federation.to_policy fed in
  check_int "ten rules" 10 (Prima_core.Policy.cardinality p_al)

(* --- heap merge parity --- *)

(* The min-heap k-way merge must agree exactly — order included — with
   stable_sort over the site-order concatenation: same timestamps merge in
   site order, and each site's own order is preserved. *)
let prop_heap_merge_parity =
  QCheck2.Test.make ~name:"heap merge = stable sort of concatenation" ~count:200
    ~print:(fun sites -> Printf.sprintf "<%d sites>" (List.length sites))
    QCheck2.Gen.(list_size (int_range 0 5) (list_size (int_range 0 20) (int_range 0 8)))
    (fun site_times ->
      let sites =
        List.mapi
          (fun i times ->
            let site = Site.create ~name:(Printf.sprintf "s%d" i) () in
            List.iteri
              (fun j time ->
                (* The user tags (site, position) so order is observable. *)
                Site.ingest_entry site (entry ~time ~user:(Printf.sprintf "u%d-%d" i j) ()))
              times;
            site)
          site_times
      in
      let merged = Federation.consolidated (Federation.of_sites sites) in
      let expected =
        List.stable_sort
          (fun a b -> Int.compare a.Hdb.Audit_schema.time b.Hdb.Audit_schema.time)
          (List.concat_map
             (fun site ->
               List.stable_sort
                 (fun a b -> Int.compare a.Hdb.Audit_schema.time b.Hdb.Audit_schema.time)
                 (Site.entries site))
             sites)
      in
      List.map (fun e -> e.Hdb.Audit_schema.user) merged
      = List.map (fun e -> e.Hdb.Audit_schema.user) expected)

(* --- the tournament merge itself --- *)

let test_tournament_basics () =
  check_bool "no streams" true (Tournament.merge ~key:(fun x -> x) [] = []);
  check_bool "all empty streams" true
    (Tournament.merge ~key:(fun x -> x) [ []; []; [] ] = []);
  check_bool "single stream passes through" true
    (Tournament.merge ~key:(fun x -> x) [ [ 1; 2; 3 ] ] = [ 1; 2; 3 ]);
  (* non-power-of-two cursor counts exercise the padded leaves *)
  check_bool "three streams interleave" true
    (Tournament.merge ~key:(fun x -> x) [ [ 1; 4; 7 ]; [ 2; 5 ]; [ 3; 6; 9 ] ]
    = [ 1; 2; 3; 4; 5; 6; 7; 9 ]);
  check_bool "five streams, uneven lengths" true
    (Tournament.merge ~key:(fun x -> x) [ [ 10 ]; []; [ 1; 2; 3 ]; [ 2 ]; [ 0; 11 ] ]
    = [ 0; 1; 2; 2; 3; 10; 11 ])

(* Eleven cursors push the bracket past one 8-leaf level, and every
   cursor carries the same four keys: each key's run must come out in
   exact stream order, with every stream's own order intact. *)
let test_tournament_many_cursors_duplicate_keys () =
  let streams =
    List.init 11 (fun i -> List.init 4 (fun j -> (j, Printf.sprintf "s%d-%d" i j)))
  in
  let expected =
    List.concat_map
      (fun j -> List.init 11 (fun i -> (j, Printf.sprintf "s%d-%d" i j)))
      [ 0; 1; 2; 3 ]
  in
  check_bool "ties resolve in stream order across 11 cursors" true
    (Tournament.merge ~key:fst streams = expected)

(* Up to 12 cursors over a 4-value key range (heavy duplication): the
   tournament must agree, order included, with a stable sort of the
   stream-order concatenation — the same oracle the federation-level
   heap-parity property uses, here against the merge primitive itself. *)
let prop_tournament_stable_tie_break =
  QCheck2.Test.make ~name:"tournament merge = stable sort, >8 cursors, duplicate keys"
    ~count:300
    ~print:(fun streams -> Printf.sprintf "<%d streams>" (List.length streams))
    QCheck2.Gen.(list_size (int_range 9 12) (list_size (int_range 0 15) (int_range 0 3)))
    (fun keystreams ->
      let streams =
        List.mapi
          (fun i keys ->
            List.mapi
              (fun j key -> (key, (i, j)))
              (List.sort Int.compare keys))
          keystreams
      in
      let merged = Tournament.merge ~key:fst streams in
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.concat streams)
      in
      merged = expected)

(* Incremental consolidation returns [merge_after]'s result as the
   continuation of the previous merge.  Streams split into sorted prefixes
   and continuations, with continuation times clustered around the
   prefixes' newest time so ties at the boundary, from lower and higher
   streams, are common: the rule must admit exactly the splits where the
   prefixes' merge followed by the continuations' merge is the merge of
   the whole streams. *)
let prop_merge_after_extends =
  QCheck2.Test.make ~name:"prefixes' merge @ merge_after continuations = whole merge"
    ~count:500
    ~print:(fun streams -> Printf.sprintf "<%d streams>" (List.length streams))
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (pair
           (list_size (int_range 0 4) (int_range 0 5))
           (list_size (int_range 0 3) (int_range (-1) 2))))
    (fun raw ->
      let newest = List.fold_left (fun m (p, _) -> List.fold_left max m p) 0 raw in
      (* the user tags each record with its stream and place *)
      let entry i tag time =
        Hdb.Audit_schema.entry ~time ~op:Hdb.Audit_schema.Allow
          ~user:(Printf.sprintf "%d-%s" i tag) ~data:"d" ~purpose:"p" ~authorized:"a"
          ~status:Hdb.Audit_schema.Regular
      in
      let split =
        List.mapi
          (fun i (prefix, offsets) ->
            let prefix = List.sort Int.compare prefix in
            let floor = List.fold_left max min_int prefix in
            let cont =
              List.sort Int.compare (List.map (fun o -> max floor (newest + o)) offsets)
            in
            ( List.mapi (fun j t -> entry i (Printf.sprintf "p%d" j) t) prefix,
              List.mapi (fun j t -> entry i (Printf.sprintf "c%d" j) t) cont ))
          raw
      in
      let prefixes = List.map fst split and conts = List.map snd split in
      let last =
        List.fold_left
          (fun (i, last) p ->
            match List.rev p with
            | (e : Hdb.Audit_schema.entry) :: _ when e.time >= fst last -> (i + 1, (e.time, i))
            | _ -> (i + 1, last))
          (0, (min_int, -1)) prefixes
        |> snd
      in
      let whole = Tournament.merge_entries (List.map2 ( @ ) prefixes conts) in
      let old = Tournament.merge_entries prefixes in
      let same = List.equal Hdb.Audit_schema.equal in
      match Tournament.merge_after ~key:(fun e -> e.Hdb.Audit_schema.time) ~last conts with
      | Some fresh -> same (old @ fresh) whole
      | None -> not (same (old @ Tournament.merge_entries conts) whole))

(* --- per-site durable WAL: crash, local replay, exactly-once --- *)

let site_log seed = Durable.Log.create ~seed ()

(* A site on its own WAL: kill it mid-stream, reopen from the devices
   alone, and the store, the exactly-once ledger and the quarantine are
   all back without re-ingesting from the source. *)
let test_site_wal_crash_replay () =
  let log = site_log 7 in
  let site = Site.create ~name:"icu" () in
  Site.attach_wal site log;
  Site.ingest_entries site [ entry ~time:1 ~user:"a" (); entry ~time:2 ~user:"b" () ];
  ignore (Site.ingest_raw_all site [ raw_row ~time:"3" (); raw_row ~time:"nope" () ]);
  Site.sync_wal site;
  (* unsynced tail: lost by the clean power cut below *)
  Site.ingest_entry site (entry ~time:9 ~user:"late" ());
  let wal = Durable.Log.wal_device log and snap = Durable.Log.snapshot_device log in
  Durable.Device.crash wal ~point:Durable.Device.Clean_loss;
  Durable.Device.crash snap ~point:Durable.Device.Clean_loss;
  let site', r, undecodable =
    Site.open_durable ~name:"icu" (Durable.Log.of_devices ~wal ~snapshot:snap)
  in
  check_bool "clean recovery" true (Durable.Recovery.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "synced entries replayed locally" 3 (Site.length site');
  check_int "quarantine replayed locally" 1 (Site.quarantined_count site');
  check_bool "clean loss of the unsynced tail is not degradation" false
    (Site.durably_degraded site');
  (* the ledger survived: a full upstream retry of the raw batch is all
     duplicates — exactly-once across the crash *)
  let retry =
    Site.ingest_raw_batch ~first_seq:0 site' [ raw_row ~time:"3" (); raw_row ~time:"nope" () ]
  in
  check_int "retried batch all duplicates" 2 retry.Site.duplicates;
  check_int "store unchanged" 3 (Site.length site');
  (* the unsynced tail is re-sent by the feed, exactly like the clinical path *)
  Site.ingest_entry site' (entry ~time:9 ~user:"late" ());
  check_int "tail replayed" 4 (Site.length site')

(* A torn WAL tail marks the site durably degraded until the feed
   acknowledges the replay; checkpointing compacts the op history. *)
let test_site_wal_torn_tail_degrades () =
  let log = site_log 11 in
  let site = Site.create ~name:"lab" () in
  Site.attach_wal site log;
  Site.ingest_entries site (List.init 6 (fun i -> entry ~time:(i + 1) ()));
  Site.sync_wal site;
  Site.ingest_entries site [ entry ~time:7 (); entry ~time:8 () ];
  let wal = Durable.Log.wal_device log and snap = Durable.Log.snapshot_device log in
  Durable.Device.crash wal ~point:Durable.Device.Torn_tail;
  Durable.Device.crash snap ~point:Durable.Device.Clean_loss;
  let site', r, _ =
    Site.open_durable ~name:"lab" (Durable.Log.of_devices ~wal ~snapshot:snap)
  in
  check_bool "synced prefix survived" true (Site.length site' >= 6);
  if Durable.Recovery.dropped_tail r then begin
    check_bool "torn tail degrades the site" true (Site.durably_degraded site');
    Site.ingest_entries site'
      (List.init (8 - Site.length site') (fun i -> entry ~time:(Site.length site' + i + 1) ()));
    Site.acknowledge_replay site';
    check_bool "replay acknowledged" false (Site.durably_degraded site')
  end;
  check_int "whole stream back" 8 (Site.length site')

(* Checkpoint compacts: after a checkpoint and a crash, recovery comes
   back from the snapshot image alone. *)
let test_site_wal_checkpoint_then_crash () =
  let log = site_log 13 in
  let site = Site.create ~name:"rad" () in
  Site.attach_wal site log;
  Site.ingest_entries site (List.init 5 (fun i -> entry ~time:(i + 1) ()));
  ignore (Site.ingest_raw_all site [ raw_row ~time:"nope" () ]);
  Durable.Log.checkpoint log;
  let wal = Durable.Log.wal_device log and snap = Durable.Log.snapshot_device log in
  Durable.Device.crash wal ~point:Durable.Device.Clean_loss;
  Durable.Device.crash snap ~point:Durable.Device.Clean_loss;
  let site', r, _ =
    Site.open_durable ~name:"rad" (Durable.Log.of_devices ~wal ~snapshot:snap)
  in
  check_bool "clean recovery from the snapshot" true (Durable.Recovery.clean r);
  check_int "entries back" 5 (Site.length site');
  check_int "quarantine back" 1 (Site.quarantined_count site');
  check_int "sequence floor preserved" (Site.next_seq site) (Site.next_seq site')

(* --- consolidated_result health --- *)

(* Reliable sites: the production path is equivalent to the direct view and
   the health report accounts for every record with completeness 1. *)
let test_consolidated_result_reliable () =
  let a = Site.create ~name:"a" () in
  let b = Site.create ~name:"b" () in
  Site.ingest_entries a [ entry ~time:1 (); entry ~time:4 () ];
  Site.ingest_entries b [ entry ~time:2 (); entry ~time:3 () ];
  let fed = Federation.of_sites [ a; b ] in
  let result = Federation.consolidated_result fed in
  check_int "all delivered" 4 (List.length result.Federation.entries);
  let h = result.Federation.health in
  check_bool "complete" true (Audit_mgmt.Health.complete h);
  check_int "total accounts for input" 4 h.Audit_mgmt.Health.total;
  check_int "nothing quarantined" 0 h.Audit_mgmt.Health.quarantined;
  check_int "nothing stranded" 0 h.Audit_mgmt.Health.skipped_entries;
  check_bool "same as direct view" true
    (List.for_all2 Hdb.Audit_schema.equal result.Federation.entries (Federation.consolidated fed))

(* A site's ingest quarantine shows up in the health accounting. *)
let test_consolidated_result_counts_ingest_quarantine () =
  let a = Site.create ~name:"a" () in
  ignore (Site.ingest_raw_all a [ raw_row ~time:"1" (); raw_row ~time:"nope" () ]);
  let fed = Federation.of_sites [ a ] in
  let h = (Federation.consolidated_result fed).Federation.health in
  check_int "delivered" 1 h.Audit_mgmt.Health.delivered;
  check_int "quarantined counted" 1 h.Audit_mgmt.Health.quarantined;
  check_int "total = delivered + quarantined" 2 h.Audit_mgmt.Health.total;
  check_bool "partial" true (h.Audit_mgmt.Health.completeness < 1.0)

let () =
  Alcotest.run "audit"
    [ ( "to-policy",
        [ Alcotest.test_case "rule of entry" `Quick test_rule_of_entry;
          Alcotest.test_case "roundtrip" `Quick test_entry_of_rule_roundtrip;
          Alcotest.test_case "partial rejected" `Quick test_entry_of_rule_partial;
          Alcotest.test_case "pattern projection" `Quick test_pattern_rule_projection;
        ] );
      ( "mapping",
        [ Alcotest.test_case "normalises" `Quick test_mapping_normalises;
          Alcotest.test_case "missing attribute" `Quick test_mapping_missing_attribute;
          Alcotest.test_case "bad time" `Quick test_mapping_bad_time;
          Alcotest.test_case "identity" `Quick test_mapping_identity;
          Alcotest.test_case "synonym case-insensitive" `Quick
            test_mapping_synonym_case_insensitive;
        ] );
      ( "site",
        [ Alcotest.test_case "ingest" `Quick test_site_ingest;
          Alcotest.test_case "legacy raw" `Quick test_site_legacy_raw;
          Alcotest.test_case "batch atomic per record" `Quick test_site_batch_atomic_per_record;
          Alcotest.test_case "batch exactly once" `Quick test_site_batch_exactly_once;
          Alcotest.test_case "reprocess after mapping fix" `Quick
            test_site_reprocess_after_mapping_fix;
        ] );
      ( "federation",
        [ Alcotest.test_case "merge by time" `Quick test_federation_merges_by_time;
          Alcotest.test_case "tie stability" `Quick test_federation_tie_stability;
          Alcotest.test_case "unsorted site" `Quick test_federation_unsorted_site;
          Alcotest.test_case "window" `Quick test_federation_window;
          Alcotest.test_case "empty" `Quick test_federation_empty;
          Alcotest.test_case "window boundaries" `Quick test_federation_window_boundaries;
          Alcotest.test_case "to policy" `Quick test_federation_to_policy;
          Alcotest.test_case "totals/lookup" `Quick test_federation_totals;
          Alcotest.test_case "heterogeneous end-to-end" `Quick
            test_federation_heterogeneous_end_to_end;
          QCheck_alcotest.to_alcotest ~long:false prop_heap_merge_parity;
        ] );
      ( "tournament",
        [ Alcotest.test_case "degenerate shapes" `Quick test_tournament_basics;
          Alcotest.test_case "11 cursors, duplicate keys" `Quick
            test_tournament_many_cursors_duplicate_keys;
          QCheck_alcotest.to_alcotest ~long:false prop_tournament_stable_tie_break;
          QCheck_alcotest.to_alcotest ~long:false prop_merge_after_extends;
        ] );
      ( "site-wal",
        [ Alcotest.test_case "crash + local replay + exactly-once" `Quick
            test_site_wal_crash_replay;
          Alcotest.test_case "torn tail degrades until replay" `Quick
            test_site_wal_torn_tail_degrades;
          Alcotest.test_case "checkpoint then crash" `Quick
            test_site_wal_checkpoint_then_crash;
        ] );
      ( "consolidated-result",
        [ Alcotest.test_case "reliable sites" `Quick test_consolidated_result_reliable;
          Alcotest.test_case "ingest quarantine counted" `Quick
            test_consolidated_result_counts_ingest_quarantine;
        ] );
    ]
