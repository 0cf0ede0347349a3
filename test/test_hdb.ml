(* Tests for the Hippocratic Database components: audit schema/store/logger/
   query, privacy rules, consent, and Active Enforcement query rewriting. *)

open Hdb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let vocab = Vocabulary.Samples.figure1 ()

let entry ?(time = 1) ?(op = Audit_schema.Allow) ?(user = "u") ?(data = "referral")
    ?(purpose = "treatment") ?(authorized = "nurse") ?(status = Audit_schema.Regular) () =
  Audit_schema.entry ~time ~op ~user ~data ~purpose ~authorized ~status

(* --- audit schema --- *)

let test_schema_int_codes () =
  check_int "allow" 1 (Audit_schema.op_to_int Audit_schema.Allow);
  check_int "exception" 0 (Audit_schema.status_to_int Audit_schema.Exception_based);
  check_bool "roundtrip op" true (Audit_schema.op_of_int 0 = Audit_schema.Disallow);
  check_bool "roundtrip status" true (Audit_schema.status_of_int 1 = Audit_schema.Regular);
  Alcotest.check_raises "bad op" (Invalid_argument "Audit_schema.op_of_int: 7") (fun () ->
      ignore (Audit_schema.op_of_int 7))

let test_schema_row_roundtrip () =
  let e = entry ~time:42 ~status:Audit_schema.Exception_based () in
  check_bool "roundtrip" true (Audit_schema.equal e (Audit_schema.of_row (Audit_schema.to_row e)))

let test_schema_assoc () =
  let assoc = Audit_schema.to_assoc (entry ~time:3 ()) in
  check_bool "time" true (List.assoc "time" assoc = "3");
  check_bool "status" true (List.assoc "status" assoc = "1");
  check_int "seven attributes" 7 (List.length assoc)

(* --- audit store --- *)

let test_store_append_get () =
  let store = Audit_store.create () in
  List.iter (Audit_store.append store) [ entry ~time:1 (); entry ~time:2 ~user:"v" () ];
  check_int "length" 2 (Audit_store.length store);
  check_bool "get 1" true ((Audit_store.get store 1).Audit_schema.user = "v");
  Alcotest.check_raises "oob" (Invalid_argument "Audit_store.get: index out of bounds")
    (fun () -> ignore (Audit_store.get store 2))

let test_store_roundtrip_many () =
  let entries =
    List.init 500 (fun i ->
        entry ~time:i
          ~user:(Printf.sprintf "user-%d" (i mod 7))
          ~data:(if i mod 2 = 0 then "referral" else "psychiatry")
          ~op:(if i mod 11 = 0 then Audit_schema.Disallow else Audit_schema.Allow)
          ~status:(if i mod 3 = 0 then Audit_schema.Exception_based else Audit_schema.Regular)
          ())
  in
  let store = Audit_store.of_entries entries in
  check_int "length" 500 (Audit_store.length store);
  List.iteri
    (fun i e -> check_bool (Printf.sprintf "entry %d" i) true
        (Audit_schema.equal e (Audit_store.get store i)))
    entries

let test_store_compression_wins () =
  let entries = List.init 2000 (fun i -> entry ~time:i ~user:"recurring-user-name" ()) in
  let store = Audit_store.of_entries entries in
  check_bool "dictionary encoding smaller" true
    (Audit_store.encoded_bytes store < Audit_store.naive_bytes store)

(* E6's storage figures, pinned on one trail that crosses every column's
   growth point: 100 rows, 20 distinct users, and provenance on every
   seventh row. *)
let test_store_sizes_pinned () =
  let store =
    Audit_store.of_entries
      (List.init 100 (fun i ->
           let e =
             entry ~time:i
               ~user:(Printf.sprintf "user-%d" (i mod 20))
               ~data:(if i mod 3 = 0 then "psychiatry" else "referral")
               ~op:(if i mod 5 = 0 then Audit_schema.Disallow else Audit_schema.Allow)
               ~status:(if i mod 4 = 0 then Audit_schema.Exception_based else Audit_schema.Regular)
               ()
           in
           if i mod 7 = 0 then
             Audit_schema.with_provenance ~session:"s-1" ~request:(Printf.sprintf "rq-%d" i)
               ~changed:[ "purpose" ] e
           else e))
  in
  check_int "naive bytes" 8518 (Audit_store.naive_bytes store);
  check_int "encoded bytes" 6003 (Audit_store.encoded_bytes store)

let test_store_to_table () =
  let store = Audit_store.of_entries [ entry ~time:1 (); entry ~time:2 () ] in
  let db = Relational.Database.create () in
  let tbl = Audit_store.to_table store ~database:db ~table_name:"audit" in
  check_int "rows" 2 (Relational.Table.row_count tbl);
  (* idempotent re-export truncates *)
  let tbl2 = Audit_store.to_table store ~database:db ~table_name:"audit" in
  check_int "re-export" 2 (Relational.Table.row_count tbl2)

(* --- logger --- *)

let test_logger_clock () =
  let logger = Audit_logger.create () in
  let t1 = Audit_logger.tick logger in
  Audit_logger.log logger ~op:Audit_schema.Allow ~user:"u" ~data:"referral"
    ~purpose:"treatment" ~authorized:"nurse" ~status:Audit_schema.Regular;
  let t2 = Audit_logger.tick logger in
  check_bool "monotone" true (t2 > t1);
  check_int "logged" 1 (Audit_logger.length logger)

let test_logger_external_entry_advances_clock () =
  let logger = Audit_logger.create () in
  Audit_logger.log_entry logger (entry ~time:100 ());
  check_bool "clock jumped" true (Audit_logger.now logger > 100)

(* --- audit query --- *)

let make_store () =
  Audit_store.of_entries
    [ entry ~time:1 ~user:"mark" ~data:"referral" ~purpose:"registration"
        ~status:Audit_schema.Exception_based ();
      entry ~time:2 ~user:"tim" ~data:"referral" ();
      entry ~time:3 ~user:"mark" ~data:"psychiatry" ~op:Audit_schema.Disallow ();
      entry ~time:4 ~user:"mark" ~data:"referral" ~purpose:"registration"
        ~status:Audit_schema.Exception_based ();
    ]

let test_query_filters () =
  let store = make_store () in
  check_int "by user" 3
    (Audit_query.count store { Audit_query.any with Audit_query.user = Some "mark" });
  check_int "by time range" 2
    (Audit_query.count store
       { Audit_query.any with Audit_query.time_from = Some 2; time_to = Some 3 });
  check_int "exceptions" 2 (List.length (Audit_query.exceptions store));
  check_int "disclosures of referral" 3
    (List.length (Audit_query.disclosures store ~data:"referral" ()))

let test_query_summaries () =
  let store = make_store () in
  let by_user = Audit_query.by_user store in
  check_bool "mark tops" true (fst (List.hd by_user) = "mark");
  let by_pattern = Audit_query.by_pattern store in
  check_bool "pattern counted" true
    (List.assoc ("referral", "registration", "nurse") by_pattern = 2)

(* --- provenance extension --- *)

let prov_entry ?(parent = Some 7) ?(changed = [ "purpose"; "status" ]) ?(session = "s-1")
    ?(request = "rq-9") base =
  Audit_schema.with_provenance ~session ~request ?parent ~changed base

let test_provenance_wire_roundtrip () =
  let cases =
    [ entry () (* no provenance: wire ends after the core *)
    ; prov_entry (entry ~time:2 ())
    ; prov_entry ~parent:None ~changed:[] (entry ~time:3 ())
    ; prov_entry ~session:"s,with\nnasty\"bytes" ~request:"" (entry ~time:4 ~user:"o'brien" ())
    ]
  in
  List.iter
    (fun e ->
      match Audit_schema.of_wire (Audit_schema.to_wire e) with
      | Some e' -> check_bool "wire roundtrip preserves provenance" true (e = e')
      | None -> Alcotest.fail "wire roundtrip failed")
    cases;
  (* a truncated extension is a codec mismatch, not a silent core entry *)
  let wire = Audit_schema.to_wire (prov_entry (entry ())) in
  check_bool "truncated extension rejected" true
    (Audit_schema.of_wire (String.sub wire 0 (String.length wire - 3)) = None);
  check_bool "trailing garbage rejected" true (Audit_schema.of_wire (wire ^ "x") = None)

let test_provenance_integrity () =
  let e = prov_entry (entry ~time:5 ()) in
  check_bool "fresh provenance verifies" true (Audit_schema.verify_integrity e);
  check_bool "stored hash equals recomputation" true
    ((match e.Audit_schema.provenance with Some p -> p.Audit_schema.integrity | None -> -1)
    = Audit_schema.integrity_hash e);
  (* forging a core field after the fact breaks the per-record hash *)
  let forged = { e with Audit_schema.user = "evil" } in
  check_bool "forged core field detected" false (Audit_schema.verify_integrity forged);
  (* forging a provenance field does too *)
  let forged_prov =
    { e with
      Audit_schema.provenance =
        (match e.Audit_schema.provenance with
        | Some p -> Some { p with Audit_schema.request = "rq-other" }
        | None -> None);
    }
  in
  check_bool "forged provenance field detected" false
    (Audit_schema.verify_integrity forged_prov);
  check_bool "no provenance verifies vacuously" true
    (Audit_schema.verify_integrity (entry ()))

let test_provenance_store_roundtrip () =
  let entries =
    [ entry ~time:1 (); prov_entry (entry ~time:2 ()); prov_entry ~parent:None (entry ~time:3 ()) ]
  in
  let store = Audit_store.of_entries entries in
  List.iteri
    (fun i e ->
      check_bool (Printf.sprintf "entry %d intact" i) true (Audit_store.get store i = e))
    entries;
  (* and across the durable write-ahead path *)
  let log = Durable.Log.create ~seed:9 () in
  let store2 = Audit_store.create () in
  ignore (Audit_store.restore store2 log);
  List.iter (Audit_store.append store2) entries;
  Durable.Log.sync log;
  let store3, r, undecodable =
    Audit_store.open_durable
      (Durable.Log.of_devices
         ~wal:(Durable.Log.wal_device log)
         ~snapshot:(Durable.Log.snapshot_device log))
  in
  check_bool "clean recovery" true (Durable.Recovery.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_bool "provenance survives restart" true (Audit_store.to_list store3 = entries)

let test_query_provenance () =
  let store =
    Audit_store.of_entries
      [ entry ~time:1 ()
      ; prov_entry ~session:"s-1" ~request:"rq-1" (entry ~time:2 ())
      ; prov_entry ~session:"s-1" ~request:"rq-2" (entry ~time:3 ())
      ; prov_entry ~session:"s-2" ~request:"rq-1" (entry ~time:4 ())
      ]
  in
  check_int "by_session" 2 (List.length (Audit_query.by_session store "s-1"));
  check_int "by_request" 2 (List.length (Audit_query.by_request store "rq-1"));
  check_int "session filter skips bare entries" 1
    (Audit_query.count store
       { Audit_query.any with Audit_query.session = Some "s-2" });
  check_int "combined session+request" 1
    (Audit_query.count store
       { Audit_query.any with Audit_query.session = Some "s-1"; request = Some "rq-2" });
  check_int "untampered trail has no violations" 0
    (List.length (Audit_query.integrity_violations store));
  (* forge one record in place: the sweep names exactly it *)
  let forged = { (Audit_store.get store 2) with Audit_schema.data = "psychiatry" } in
  let store' =
    Audit_store.of_entries
      (List.mapi
         (fun i e -> if i = 2 then forged else e)
         (Audit_store.to_list store))
  in
  match Audit_query.integrity_violations store' with
  | [ e ] -> check_bool "the forged record" true (e = forged)
  | l -> Alcotest.failf "expected exactly the forged record, got %d" (List.length l)

(* --- privacy rules --- *)

let test_rules_closed_world () =
  let rules = Privacy_rules.create ~vocab in
  check_bool "default deny" false
    (Privacy_rules.permits rules ~data:"referral" ~purpose:"treatment" ~authorized:"nurse")

let test_rules_composite_covers () =
  let rules = Privacy_rules.create ~vocab in
  Privacy_rules.add rules ~data:"routine" ~purpose:"treatment" ~authorized:"nurse" ();
  check_bool "referral covered" true
    (Privacy_rules.permits rules ~data:"referral" ~purpose:"treatment" ~authorized:"nurse");
  check_bool "psychiatry not covered" false
    (Privacy_rules.permits rules ~data:"psychiatry" ~purpose:"treatment" ~authorized:"nurse")

let test_rules_deny_overrides () =
  let rules = Privacy_rules.create ~vocab in
  Privacy_rules.add rules ~data:"clinical" ~purpose:"treatment" ~authorized:"nurse" ();
  Privacy_rules.add rules ~effect:Privacy_rules.Forbid ~data:"sensitive" ~purpose:"treatment"
    ~authorized:"nurse" ();
  check_bool "routine ok" true
    (Privacy_rules.permits rules ~data:"referral" ~purpose:"treatment" ~authorized:"nurse");
  check_bool "sensitive forbidden" false
    (Privacy_rules.permits rules ~data:"psychiatry" ~purpose:"treatment" ~authorized:"nurse")

let test_rules_role_subsumption () =
  let rules = Privacy_rules.create ~vocab in
  Privacy_rules.add rules ~data:"psychiatry" ~purpose:"treatment" ~authorized:"physician" ();
  check_bool "psychiatrist is physician" true
    (Privacy_rules.permits rules ~data:"psychiatry" ~purpose:"treatment"
       ~authorized:"psychiatrist");
  check_bool "nurse is not" false
    (Privacy_rules.permits rules ~data:"psychiatry" ~purpose:"treatment" ~authorized:"nurse")

(* The decision memo against the uncached fold over the rule list: rules
   are added (permit and forbid, leaf and composite values) between
   decisions, and every answer must equal the reference's.  The values
   come from a few branches of the hospital vocabulary, so requests repeat
   and share two of their three values. *)
type rules_step =
  | Add of Privacy_rules.rule
  | Decide of string * string * string
  | Permits of string * string * string

let rules_step_to_string = function
  | Add r -> Fmt.str "add %a" Privacy_rules.pp_rule r
  | Decide (d, p, a) -> Printf.sprintf "decide %s/%s/%s" d p a
  | Permits (d, p, a) -> Printf.sprintf "permits %s/%s/%s" d p a

let gen_rules_steps =
  let open QCheck2.Gen in
  let data = oneofl [ "data"; "clinical"; "routine"; "referral"; "prescription"; "sensitive";
                      "psychiatry"; "demographic"; "address" ] in
  let purpose = oneofl [ "purpose"; "administering-healthcare"; "care-delivery"; "treatment";
                         "diagnosis"; "payment"; "billing" ] in
  let authorized = oneofl [ "staff"; "clinical-staff"; "physician"; "psychiatrist"; "nursing";
                            "nurse"; "clerk" ] in
  let triple = triple data purpose authorized in
  let step =
    frequency
      [ (1, map2 (fun effect (data, purpose, authorized) ->
                Add { Privacy_rules.data; purpose; authorized; effect })
              (frequencyl [ (3, Privacy_rules.Permit); (1, Privacy_rules.Forbid) ]) triple);
        (3, map (fun (d, p, a) -> Decide (d, p, a)) triple);
        (2, map (fun (d, p, a) -> Permits (d, p, a)) triple);
      ]
  in
  list_size (int_range 1 60) step

let prop_decision_memo =
  QCheck2.Test.make ~name:"memoized decide = fold over the rules" ~count:500
    ~print:(fun steps -> String.concat "\n" (List.map rules_step_to_string steps))
    gen_rules_steps (fun steps ->
      let rules = Privacy_rules.create ~vocab:(Vocabulary.Samples.hospital ()) in
      List.for_all
        (fun step ->
          match step with
          | Add r ->
            Privacy_rules.add rules ~effect:r.Privacy_rules.effect ~data:r.Privacy_rules.data
              ~purpose:r.Privacy_rules.purpose ~authorized:r.Privacy_rules.authorized ();
            true
          | Decide (data, purpose, authorized) ->
            Privacy_rules.decide rules ~data ~purpose ~authorized
            = Test_support.Decision_reference.decide rules ~data ~purpose ~authorized
          | Permits (data, purpose, authorized) ->
            Privacy_rules.permits rules ~data ~purpose ~authorized
            = (Test_support.Decision_reference.decide rules ~data ~purpose ~authorized
               = Privacy_rules.Permit))
        steps)

(* --- category map against Test_support.Name_reference's folding map: a
   sequence of mappings and lookups, every name spelled in mixed case --- *)

type map_step =
  | Set_category of string * string * string
  | Set_patient of string * string
  | Lookup of string * string

let map_step_to_string = function
  | Set_category (t, c, cat) -> Printf.sprintf "set_category %s.%s %s" t c cat
  | Set_patient (t, c) -> Printf.sprintf "set_patient_column %s.%s" t c
  | Lookup (t, c) -> Printf.sprintf "lookup %s.%s" t c

let gen_map_steps =
  let open QCheck2.Gen in
  let recase s =
    map
      (fun upper ->
        String.mapi
          (fun i c -> if List.nth upper i then Char.uppercase_ascii c else Char.lowercase_ascii c)
          s)
      (list_repeat (String.length s) bool)
  in
  let table = oneofl [ "records"; "visits"; "lab_2" ] >>= recase in
  let column = oneofl [ "patient"; "referral"; "psychiatry" ] >>= recase in
  let step =
    frequency
      [ (2, map3 (fun t c cat -> Set_category (t, c, cat)) table column
              (oneofl [ "referral"; "psychiatry"; "address" ]));
        (1, map2 (fun t c -> Set_patient (t, c)) table column);
        (4, map2 (fun t c -> Lookup (t, c)) table column);
      ]
  in
  list_size (int_range 1 30) step

let prop_category_map =
  QCheck2.Test.make ~name:"category map = the folding map" ~count:1000
    ~print:(fun steps -> String.concat "\n" (List.map map_step_to_string steps))
    gen_map_steps (fun steps ->
      let module R = Test_support.Name_reference in
      let map = Category_map.create () and reference = R.create_map () in
      List.for_all
        (fun step ->
          match step with
          | Set_category (table, column, category) ->
            Category_map.set_category map ~table ~column ~category;
            R.set_category reference ~table ~column ~category;
            true
          | Set_patient (table, column) ->
            Category_map.set_patient_column map ~table ~column;
            R.set_patient_column reference ~table ~column;
            true
          | Lookup (table, column) ->
            Category_map.is_mapped_table map ~table = R.is_mapped_table reference ~table
            && Category_map.category_of map ~table ~column
               = R.category_of reference ~table ~column
            && Category_map.patient_column map ~table = R.patient_column reference ~table)
        steps)

(* --- consent --- *)

let test_consent_default_and_optout () =
  let consent = Consent.create ~vocab () in
  check_bool "default opt-in" true
    (Consent.permits consent ~patient:"p1" ~purpose:"treatment" ~data:"referral");
  Consent.record consent ~patient:"p1" ~purpose:"administering-healthcare" ~data:"sensitive"
    Consent.Opt_out;
  check_bool "opted out subtree" false
    (Consent.permits consent ~patient:"p1" ~purpose:"billing" ~data:"psychiatry");
  check_bool "other data unaffected" true
    (Consent.permits consent ~patient:"p1" ~purpose:"billing" ~data:"referral");
  check_bool "other patient unaffected" true
    (Consent.permits consent ~patient:"p2" ~purpose:"billing" ~data:"psychiatry")

let test_consent_latest_wins () =
  let consent = Consent.create ~vocab () in
  Consent.record consent ~patient:"p1" ~purpose:"research" ~data:"data" Consent.Opt_out;
  Consent.record consent ~patient:"p1" ~purpose:"research" ~data:"data" Consent.Opt_in;
  check_bool "re-opt-in wins" true
    (Consent.permits consent ~patient:"p1" ~purpose:"research" ~data:"gender")

let test_consent_opted_out_patients () =
  let consent = Consent.create ~vocab () in
  Consent.record consent ~patient:"p2" ~purpose:"billing" ~data:"demographic" Consent.Opt_out;
  let out =
    Consent.opted_out_patients consent ~patients:[ "p1"; "p2"; "p3" ] ~purpose:"billing"
      ~categories:[ "address" ]
  in
  Alcotest.(check (list string)) "only p2" [ "p2" ] out

(* --- enforcement --- *)

let clinical_sql =
  [ "CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT, address TEXT)";
    "INSERT INTO records VALUES ('p1', 'r1', 'psy1', 'a1'), ('p2', 'r2', 'psy2', 'a2'), ('p3', 'r3', 'psy3', 'a3')";
  ]

let make_control () =
  let control = Control_center.create ~vocab () in
  List.iter (fun sql -> ignore (Control_center.admin_exec control sql)) clinical_sql;
  Control_center.set_patient_column control ~table:"records" ~column:"patient";
  Control_center.map_column control ~table:"records" ~column:"referral" ~category:"referral";
  Control_center.map_column control ~table:"records" ~column:"psychiatry" ~category:"psychiatry";
  Control_center.map_column control ~table:"records" ~column:"address" ~category:"address";
  Control_center.permit control ~data:"routine" ~purpose:"treatment" ~authorized:"nurse";
  Control_center.permit control ~data:"demographic" ~purpose:"billing" ~authorized:"clerk";
  control

let run_ok ?break_glass control ~user ~role ~purpose sql =
  match Control_center.query ?break_glass control ~user ~role ~purpose sql with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "unexpected denial: %s" (Enforcement.error_to_string e)

let test_enforcement_permitted_query () =
  let control = make_control () in
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT patient, referral FROM records"
  in
  check_int "three rows" 3 (List.length outcome.Enforcement.result.Relational.Executor.rows);
  check_bool "nothing masked" true (outcome.Enforcement.masked_columns = []);
  Alcotest.(check (list string)) "disclosed" [ "referral" ]
    outcome.Enforcement.disclosed_categories

let test_enforcement_masks_forbidden_column () =
  let control = make_control () in
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral, psychiatry FROM records"
  in
  Alcotest.(check (list string)) "psychiatry masked" [ "psychiatry" ]
    outcome.Enforcement.masked_columns;
  let first = List.hd outcome.Enforcement.result.Relational.Executor.rows in
  check_bool "masked cell is NULL" true
    (Relational.Row.get first 1 = Relational.Value.Null);
  check_bool "permitted cell survives" true
    (Relational.Row.get first 0 = Relational.Value.Str "r1")

let test_enforcement_denies_all_forbidden () =
  let control = make_control () in
  match
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"billing"
      "SELECT psychiatry FROM records"
  with
  | Error (Enforcement.Denied _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Enforcement.error_to_string e)
  | Ok _ -> Alcotest.fail "expected denial"

let test_enforcement_denies_forbidden_predicate () =
  let control = make_control () in
  match
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral FROM records WHERE psychiatry = 'psy1'"
  with
  | Error (Enforcement.Denied _) -> ()
  | _ -> Alcotest.fail "expected denial for predicate leak"

let test_enforcement_consent_excludes_rows () =
  let control = make_control () in
  Control_center.opt_out control ~patient:"p2" ~purpose:"treatment" ~data:"referral";
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT patient, referral FROM records"
  in
  check_int "two rows" 2 (List.length outcome.Enforcement.result.Relational.Executor.rows);
  Alcotest.(check (list string)) "p2 excluded" [ "p2" ] outcome.Enforcement.excluded_patients

let test_enforcement_break_glass () =
  let control = make_control () in
  let denied =
    Control_center.query control ~user:"sarah" ~role:"nurse" ~purpose:"treatment"
      "SELECT psychiatry FROM records"
  in
  check_bool "denied first" true (Result.is_error denied);
  let outcome =
    run_ok ~break_glass:true control ~user:"sarah" ~role:"nurse" ~purpose:"treatment"
      "SELECT psychiatry FROM records"
  in
  check_bool "break glass flagged" true outcome.Enforcement.break_glass;
  check_int "all rows returned" 3 (List.length outcome.Enforcement.result.Relational.Executor.rows);
  (* Both the denial and the BTG access are on the audit trail. *)
  let entries = Control_center.audit_entries control in
  check_bool "denial logged" true
    (List.exists (fun e -> e.Audit_schema.op = Audit_schema.Disallow) entries);
  check_bool "exception logged" true
    (List.exists (fun e -> e.Audit_schema.status = Audit_schema.Exception_based) entries)

let test_enforcement_audit_trail_regular () =
  let control = make_control () in
  let _ =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral FROM records"
  in
  let entries = Control_center.audit_entries control in
  check_int "one entry" 1 (List.length entries);
  let e = List.hd entries in
  check_string "data" "referral" e.Audit_schema.data;
  check_string "purpose" "treatment" e.Audit_schema.purpose;
  check_string "authorized" "nurse" e.Audit_schema.authorized;
  check_bool "regular" true (e.Audit_schema.status = Audit_schema.Regular)

let test_enforcement_unmapped_table_passthrough () =
  let control = make_control () in
  ignore (Control_center.admin_exec control "CREATE TABLE config (k TEXT, v TEXT)");
  ignore (Control_center.admin_exec control "INSERT INTO config VALUES ('a', 'b')");
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment" "SELECT k FROM config"
  in
  check_int "passthrough" 1 (List.length outcome.Enforcement.result.Relational.Executor.rows);
  check_int "nothing audited" 0 (List.length (Control_center.audit_entries control))

let test_enforcement_rejects_non_select () =
  let control = make_control () in
  match
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "DELETE FROM records"
  with
  | Error (Enforcement.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected unsupported"

let test_enforcement_aggregate_query () =
  let control = make_control () in
  (* Aggregating a permitted category is a disclosure of that category. *)
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT COUNT(referral) FROM records"
  in
  Alcotest.(check (list string)) "category disclosed" [ "referral" ]
    outcome.Enforcement.disclosed_categories;
  (* COUNT star touches no mapped column: runs, discloses nothing. *)
  let outcome2 =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT COUNT(*) FROM records"
  in
  check_bool "no categories" true (outcome2.Enforcement.disclosed_categories = []);
  (* Aggregating a forbidden category is masked like any projection. *)
  let outcome3 =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral, COUNT(psychiatry) FROM records GROUP BY referral"
  in
  check_bool "psychiatry masked" true
    (List.mem "psychiatry" outcome3.Enforcement.masked_columns)

let test_enforcement_break_glass_flag_only_on_denial () =
  let control = make_control () in
  (* A permitted query with break_glass requested is just a regular query. *)
  let outcome =
    run_ok ~break_glass:true control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral FROM records"
  in
  check_bool "not flagged" false outcome.Enforcement.break_glass;
  let entries = Control_center.audit_entries control in
  check_bool "logged regular" true
    (List.for_all (fun e -> e.Audit_schema.status = Audit_schema.Regular) entries)

let test_enforcement_projection_and_predicate_same_column () =
  let control = make_control () in
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral FROM records WHERE referral = 'r1'"
  in
  check_int "one row" 1 (List.length outcome.Enforcement.result.Relational.Executor.rows)

let test_consent_opt_out_default_store () =
  let consent = Consent.create ~default:Consent.Opt_out ~vocab () in
  check_bool "denied by default" false
    (Consent.permits consent ~patient:"p9" ~purpose:"treatment" ~data:"referral");
  Consent.record consent ~patient:"p9" ~purpose:"administering-healthcare" ~data:"clinical"
    Consent.Opt_in;
  check_bool "opt-in subtree grants" true
    (Consent.permits consent ~patient:"p9" ~purpose:"treatment" ~data:"referral");
  let out =
    Consent.opted_out_patients consent ~patients:[ "p9"; "p10" ] ~purpose:"treatment"
      ~categories:[ "referral" ]
  in
  Alcotest.(check (list string)) "p10 excluded by default" [ "p10" ] out

(* --- typed patient ids --- *)

(* [visits] with a patient column of type [ty], one row per literal in
   [patients]; patient "2" opted out of treatment uses of referral. *)
let make_typed_control ty patients =
  let control = Control_center.create ~vocab () in
  List.iter
    (fun sql -> ignore (Control_center.admin_exec control sql))
    [ Printf.sprintf "CREATE TABLE visits (patient %s, referral TEXT)" ty;
      "INSERT INTO visits VALUES "
      ^ String.concat ", " (List.map (Printf.sprintf "(%s, 'r')") patients);
    ];
  Control_center.set_patient_column control ~table:"visits" ~column:"patient";
  Control_center.map_column control ~table:"visits" ~column:"referral" ~category:"referral";
  Control_center.permit control ~data:"routine" ~purpose:"treatment" ~authorized:"nurse";
  Control_center.opt_out control ~patient:"2" ~purpose:"treatment" ~data:"referral";
  control

let query_typed_visits control =
  Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
    "SELECT patient, referral FROM visits"

let test_enforcement_int_patient_ids () =
  List.iter
    (fun (ty, patients, excluded_literal) ->
      match query_typed_visits (make_typed_control ty patients) with
      | Error e -> Alcotest.failf "%s: %s" ty (Enforcement.error_to_string e)
      | Ok outcome ->
        check_int (ty ^ ": patient 2's row withheld") 2
          (List.length outcome.Enforcement.result.Relational.Executor.rows);
        Alcotest.(check (list string)) (ty ^ ": excluded") [ "2" ]
          outcome.Enforcement.excluded_patients;
        check_string (ty ^ ": NOT IN carries the column's type")
          ("SELECT patient, referral FROM visits WHERE visits.patient NOT IN ("
          ^ excluded_literal ^ ")")
          outcome.Enforcement.rewritten_sql)
    [ ("INT", [ "1"; "2"; "3" ], "2"); ("TEXT", [ "'1'"; "'2'"; "'3'" ], "'2'") ]

let test_enforcement_untyped_patient_column_fails_closed () =
  List.iter
    (fun (ty, patients) ->
      match query_typed_visits (make_typed_control ty patients) with
      | Error (Enforcement.Unsupported _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error: %s" ty (Enforcement.error_to_string e)
      | Ok outcome ->
        Alcotest.failf "%s patient column: %d rows returned without consent filtering" ty
          (List.length outcome.Enforcement.result.Relational.Executor.rows))
    [ ("REAL", [ "1.0"; "2.0"; "3.0" ]); ("BOOLEAN", [ "TRUE"; "FALSE" ]) ]

(* --- multi-table enforcement --- *)

let make_join_control () =
  let control = make_control () in
  List.iter
    (fun sql -> ignore (Control_center.admin_exec control sql))
    [ "CREATE TABLE visits (patient TEXT, ward TEXT, rx TEXT)";
      "INSERT INTO visits VALUES ('p1', 'icu', 'rxA'), ('p2', 'derm', 'rxB'), ('p3', 'icu', 'rxC')";
    ];
  Control_center.set_patient_column control ~table:"visits" ~column:"patient";
  Control_center.map_column control ~table:"visits" ~column:"rx" ~category:"prescription";
  control

let test_enforcement_join_masks_per_table () =
  let control = make_join_control () in
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT records.referral, visits.rx, records.psychiatry FROM records JOIN visits ON records.patient = visits.patient"
  in
  Alcotest.(check (list string)) "psychiatry masked" [ "psychiatry" ]
    outcome.Enforcement.masked_columns;
  Alcotest.(check (list string)) "both permitted categories disclosed"
    [ "prescription"; "referral" ]
    (List.sort String.compare outcome.Enforcement.disclosed_categories);
  check_int "joined rows" 3 (List.length outcome.Enforcement.result.Relational.Executor.rows)

let test_enforcement_join_consent_per_table () =
  let control = make_join_control () in
  Control_center.opt_out control ~patient:"p2" ~purpose:"treatment" ~data:"prescription";
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT v.rx FROM records JOIN visits AS v ON records.patient = v.patient"
  in
  Alcotest.(check (list string)) "p2 excluded" [ "p2" ] outcome.Enforcement.excluded_patients;
  check_int "two rows" 2 (List.length outcome.Enforcement.result.Relational.Executor.rows)

let test_enforcement_join_predicate_leak_denied () =
  let control = make_join_control () in
  match
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT visits.rx FROM records JOIN visits ON records.psychiatry = visits.ward"
  with
  | Error (Enforcement.Denied _) -> ()
  | _ -> Alcotest.fail "expected denial via join condition"

let test_enforcement_alias_supported () =
  let control = make_control () in
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT r.referral FROM records AS r"
  in
  check_int "rows via alias" 3 (List.length outcome.Enforcement.result.Relational.Executor.rows);
  Alcotest.(check (list string)) "disclosed" [ "referral" ]
    outcome.Enforcement.disclosed_categories

(* Names are case-insensitive all the way through enforcement: a mapping
   registered as RECORDS/Referral and a query spelled in mixed case answer,
   mask, exclude and audit as the lowercase query does. *)
let test_enforcement_mixed_case_names () =
  let run ~mapped_table ~mapped_column queries =
    let control = Control_center.create ~vocab () in
    List.iter (fun sql -> ignore (Control_center.admin_exec control sql)) clinical_sql;
    Control_center.set_patient_column control ~table:mapped_table ~column:"Patient";
    Control_center.map_column control ~table:mapped_table ~column:mapped_column
      ~category:"referral";
    Control_center.map_column control ~table:mapped_table ~column:"PSYCHIATRY"
      ~category:"psychiatry";
    Control_center.permit control ~data:"routine" ~purpose:"treatment" ~authorized:"nurse";
    Control_center.opt_out control ~patient:"p2" ~purpose:"treatment" ~data:"referral";
    let outcomes =
      List.map (run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment") queries
    in
    ( List.map
        (fun o ->
          ( o.Enforcement.result.Relational.Executor.rows,
            o.Enforcement.masked_columns,
            o.Enforcement.excluded_patients,
            o.Enforcement.disclosed_categories ))
        outcomes,
      Control_center.audit_entries control )
  in
  let mixed, mixed_audit =
    run ~mapped_table:"RECORDS" ~mapped_column:"Referral"
      [ "SELECT Referral FROM Records r WHERE R.Patient = 'p1'";
        "SELECT R.Referral, Psychiatry FROM Records r WHERE R.Patient = 'p1'";
      ]
  and lower, lower_audit =
    run ~mapped_table:"records" ~mapped_column:"referral"
      [ "SELECT referral FROM records r WHERE r.patient = 'p1'";
        "SELECT r.referral, psychiatry FROM records r WHERE r.patient = 'p1'";
      ]
  in
  check_bool "same rows, masks, exclusions and disclosures" true (mixed = lower);
  (match lower with
  | [ (rows, [], [ "p2" ], [ "referral" ]); (_, [ "psychiatry" ], [ "p2" ], [ "referral" ]) ] ->
    check_int "p1's row" 1 (List.length rows)
  | _ -> Alcotest.fail "the lowercase queries should read p1, mask psychiatry, exclude p2");
  check_bool "same audit entries" true (List.equal Audit_schema.equal mixed_audit lower_audit)

let test_enforcement_rewritten_sql_inspectable () =
  let control = make_control () in
  Control_center.opt_out control ~patient:"p1" ~purpose:"treatment" ~data:"referral";
  let outcome =
    run_ok control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT referral, psychiatry FROM records"
  in
  let sql = outcome.Enforcement.rewritten_sql in
  let contains needle =
    let nh = String.length sql and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub sql i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "consent predicate" true (contains "NOT IN");
  check_bool "masking literal" true (contains "NULL AS psychiatry")

let () =
  Alcotest.run "hdb"
    [ ( "audit-schema",
        [ Alcotest.test_case "int codes" `Quick test_schema_int_codes;
          Alcotest.test_case "row roundtrip" `Quick test_schema_row_roundtrip;
          Alcotest.test_case "assoc" `Quick test_schema_assoc;
        ] );
      ( "audit-store",
        [ Alcotest.test_case "append/get" `Quick test_store_append_get;
          Alcotest.test_case "roundtrip many" `Quick test_store_roundtrip_many;
          Alcotest.test_case "compression wins" `Quick test_store_compression_wins;
          Alcotest.test_case "storage figures pinned" `Quick test_store_sizes_pinned;
          Alcotest.test_case "to relational table" `Quick test_store_to_table;
        ] );
      ( "logger",
        [ Alcotest.test_case "clock" `Quick test_logger_clock;
          Alcotest.test_case "external entries" `Quick test_logger_external_entry_advances_clock;
        ] );
      ( "audit-query",
        [ Alcotest.test_case "filters" `Quick test_query_filters;
          Alcotest.test_case "summaries" `Quick test_query_summaries;
        ] );
      ( "provenance",
        [ Alcotest.test_case "wire roundtrip" `Quick test_provenance_wire_roundtrip;
          Alcotest.test_case "integrity hash" `Quick test_provenance_integrity;
          Alcotest.test_case "store + durable roundtrip" `Quick
            test_provenance_store_roundtrip;
          Alcotest.test_case "query tracing" `Quick test_query_provenance;
        ] );
      ( "privacy-rules",
        [ Alcotest.test_case "closed world" `Quick test_rules_closed_world;
          Alcotest.test_case "composite covers" `Quick test_rules_composite_covers;
          Alcotest.test_case "deny overrides" `Quick test_rules_deny_overrides;
          Alcotest.test_case "role subsumption" `Quick test_rules_role_subsumption;
          QCheck_alcotest.to_alcotest prop_decision_memo;
        ] );
      ("category-map", [ QCheck_alcotest.to_alcotest prop_category_map ]);
      ( "consent",
        [ Alcotest.test_case "default & opt-out" `Quick test_consent_default_and_optout;
          Alcotest.test_case "latest wins" `Quick test_consent_latest_wins;
          Alcotest.test_case "opted-out patients" `Quick test_consent_opted_out_patients;
        ] );
      ( "enforcement",
        [ Alcotest.test_case "permitted query" `Quick test_enforcement_permitted_query;
          Alcotest.test_case "masks forbidden column" `Quick
            test_enforcement_masks_forbidden_column;
          Alcotest.test_case "denies all-forbidden" `Quick test_enforcement_denies_all_forbidden;
          Alcotest.test_case "denies predicate leak" `Quick
            test_enforcement_denies_forbidden_predicate;
          Alcotest.test_case "consent excludes rows" `Quick
            test_enforcement_consent_excludes_rows;
          Alcotest.test_case "break glass" `Quick test_enforcement_break_glass;
          Alcotest.test_case "audit trail" `Quick test_enforcement_audit_trail_regular;
          Alcotest.test_case "unmapped passthrough" `Quick
            test_enforcement_unmapped_table_passthrough;
          Alcotest.test_case "non-select rejected" `Quick test_enforcement_rejects_non_select;
          Alcotest.test_case "rewritten sql inspectable" `Quick
            test_enforcement_rewritten_sql_inspectable;
          Alcotest.test_case "mixed-case names" `Quick test_enforcement_mixed_case_names;
        ] );
      ( "enforcement-edges",
        [ Alcotest.test_case "aggregate queries" `Quick test_enforcement_aggregate_query;
          Alcotest.test_case "break-glass flag only on denial" `Quick
            test_enforcement_break_glass_flag_only_on_denial;
          Alcotest.test_case "projection+predicate same column" `Quick
            test_enforcement_projection_and_predicate_same_column;
          Alcotest.test_case "opt-out default consent" `Quick
            test_consent_opt_out_default_store;
        ] );
      ( "enforcement-joins",
        [ Alcotest.test_case "masks per table" `Quick test_enforcement_join_masks_per_table;
          Alcotest.test_case "consent per table" `Quick test_enforcement_join_consent_per_table;
          Alcotest.test_case "join-condition leak denied" `Quick
            test_enforcement_join_predicate_leak_denied;
          Alcotest.test_case "alias supported" `Quick test_enforcement_alias_supported;
        ] );
      ( "enforcement-patient-ids",
        [ Alcotest.test_case "INTEGER ids are excluded" `Quick test_enforcement_int_patient_ids;
          Alcotest.test_case "REAL/BOOLEAN columns fail closed" `Quick
            test_enforcement_untyped_patient_column_fails_closed;
        ] );
    ]
