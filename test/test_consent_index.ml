(* Index-backed, cached consent exclusion (DESIGN.md §18) against the row
   scan it replaced: a QCheck differential oracle over random tables,
   consent histories and queries, then the patient index's and the
   exclusion cache's lifecycle under DML, DDL and consent changes, and the
   index's effect on strict tuple quotas. *)

open Hdb
module R = Relational
module V = Relational.Value

let vocab = Vocabulary.Samples.figure1 ()
let check_int = Alcotest.(check int)
let check_strings = Alcotest.(check (list string))

(* --- the oracle: the row scan --- *)

(* Every distinct non-NULL patient value of [table] in row order, rendered
   as a consent id; the store keeps the patients who withheld consent for
   (purpose, any of [categories]).  Returns (id, column value) pairs. *)
let scan_exclusion engine consent ~table ~purpose ~categories =
  let tbl = R.Engine.table engine table in
  let column = R.Schema.find_exn (R.Table.schema tbl) "patient" in
  let seen = Hashtbl.create 16 in
  let candidates =
    R.Table.fold
      (fun acc row ->
        match R.Row.get row column with
        | V.Null -> acc
        | v ->
          let id = V.to_string v in
          if Hashtbl.mem seen id then acc
          else begin
            Hashtbl.add seen id ();
            (id, v) :: acc
          end)
      [] tbl
    |> List.rev
  in
  let excluded =
    Consent.opted_out_patients consent ~patients:(List.map fst candidates) ~purpose ~categories
  in
  List.filter (fun (id, _) -> List.mem id excluded) candidates

(* --- scenarios --- *)

(* Two patient tables.  [visits.note] shares the referral category with
   [records.referral], so what a query discloses from each table matters. *)
let mapped_columns = function
  | "records" -> [ ("referral", "referral"); ("psychiatry", "psychiatry"); ("address", "address") ]
  | _ -> [ ("rx", "prescription"); ("note", "referral") ]

let tables = [ "records"; "visits" ]
let category_of table column = List.assoc_opt column (mapped_columns table)

type query = {
  sql : string;
  scope : string list;  (** tables in FROM order *)
  projected : (string * string) list;  (** (table, column) *)
  role : string;
  purpose : string;
  break_glass : bool;
}

type step =
  | Query of query
  | Exec of string  (** DML run on both engines *)
  | Choice of Consent.record

type scenario = {
  int_ids : (string * bool) list;  (** table -> INTEGER (else TEXT) patient column *)
  default : Consent.choice;
  setup : string list;
  steps : step list;
}

let choice_to_string = function Consent.Opt_in -> "opt-in" | Consent.Opt_out -> "opt-out"

let step_to_string = function
  | Query q ->
    Printf.sprintf "%s%s as %s/%s" q.sql (if q.break_glass then " [BTG]" else "") q.role q.purpose
  | Exec sql -> sql
  | Choice r ->
    Printf.sprintf "consent %s %s %s/%s" r.Consent.patient (choice_to_string r.Consent.choice)
      r.Consent.purpose r.Consent.data

let scenario_to_string s =
  String.concat "\n"
    (Printf.sprintf "store default %s" (choice_to_string s.default)
    :: s.setup
    @ List.map step_to_string s.steps)

module G = QCheck2.Gen

let ( let* ) = G.( >>= )

let patient_value ~int_id =
  if int_id then G.oneofl V.[ Int 0; Int 1; Int 2; Int 3; Int 4; Null ]
  else G.oneofl V.[ Str "0"; Str "1"; Str "2"; Str "3"; Str "02"; Null ]

let row_sql table ~int_id =
  let* patient = patient_value ~int_id in
  let* others = G.list_repeat (List.length (mapped_columns table)) (G.oneofl [ "'a'"; "'b'" ]) in
  G.return
    (Printf.sprintf "INSERT INTO %s VALUES (%s)" table
       (String.concat ", " (V.to_sql_literal patient :: others)))

let create_sql table ~int_id =
  Printf.sprintf "CREATE TABLE %s (patient %s, %s)" table
    (if int_id then "INT" else "TEXT")
    (String.concat ", " (List.map (fun (c, _) -> c ^ " TEXT") (mapped_columns table)))

let gen_rows table ~int_id = G.list_size (G.int_range 0 6) (row_sql table ~int_id)

(* Consent ids: "5" is in no table, "02" names TEXT '02' but not INT 2, and
   "p1" names nothing. *)
let gen_record =
  let* patient = G.oneofl [ "0"; "1"; "2"; "3"; "4"; "5"; "02"; "p1" ] in
  let* purpose =
    G.oneofl [ "treatment"; "billing"; "registration"; "administering-healthcare"; "research"; "purpose" ]
  in
  let* data =
    G.oneofl
      [ "referral"; "psychiatry"; "address"; "prescription"; "routine"; "clinical"; "demographic"; "data" ]
  in
  let* choice = G.frequencyl [ (3, Consent.Opt_out); (1, Consent.Opt_in) ] in
  G.return { Consent.patient; purpose; data; choice }

let contexts =
  [ ("nurse", "treatment"); ("clerk", "billing"); ("psychiatrist", "treatment");
    ("nurse", "billing"); ("doctor", "registration");
  ]

let sublist xs =
  let* picked = G.list_size (G.int_range 1 3) (G.oneofl xs) in
  G.return (List.sort_uniq compare picked)

let gen_query int_ids =
  let* role, purpose = G.oneofl contexts in
  let* break_glass = G.bool in
  let* table = G.oneofl tables in
  let columns t = "patient" :: List.map fst (mapped_columns t) in
  let* kind = G.int_range 0 3 in
  let* scope, projected, from, where =
    match kind with
    | 0 ->
      let* cols = sublist (columns table) in
      let* v = patient_value ~int_id:(List.assoc table int_ids) in
      G.return ([ table ], List.map (fun c -> (table, c)) cols, table,
                Printf.sprintf " WHERE patient = %s" (V.to_sql_literal v))
    | 1 ->
      let* cols = sublist (columns table) in
      G.return ([ table ], List.map (fun c -> (table, c)) cols, table, "")
    | 2 ->
      let* cols = sublist (columns table) in
      let* column = G.oneofl (List.map fst (mapped_columns table)) in
      G.return ([ table ], List.map (fun c -> (table, c)) cols, table,
                Printf.sprintf " WHERE %s = 'a'" column)
    | _ ->
      let* projected =
        sublist (List.concat_map (fun t -> List.map (fun c -> (t, c)) (columns t)) tables)
      in
      G.return (tables, projected,
                "records JOIN visits ON records.patient = visits.patient", "")
  in
  let render (t, c) = if List.length scope > 1 then t ^ "." ^ c else c in
  let sql =
    Printf.sprintf "SELECT %s FROM %s%s" (String.concat ", " (List.map render projected)) from where
  in
  G.return (Query { sql; scope; projected; role; purpose; break_glass })

let gen_dml int_ids =
  let* table = G.oneofl tables in
  let int_id = List.assoc table int_ids in
  let* v = patient_value ~int_id in
  let* v' = patient_value ~int_id in
  let lit = V.to_sql_literal in
  G.oneof
    [ G.map (fun sql -> Exec sql) (row_sql table ~int_id);
      G.return (Exec (Printf.sprintf "DELETE FROM %s WHERE patient = %s" table (lit v)));
      G.return
        (Exec (Printf.sprintf "UPDATE %s SET patient = %s WHERE patient = %s" table (lit v') (lit v)));
    ]

let gen_scenario =
  let* records_int = G.bool in
  let* visits_int = G.bool in
  let int_ids = [ ("records", records_int); ("visits", visits_int) ] in
  let* default = G.frequencyl [ (3, Consent.Opt_in); (1, Consent.Opt_out) ] in
  let* records_rows = gen_rows "records" ~int_id:records_int in
  let* visits_rows = gen_rows "visits" ~int_id:visits_int in
  let* history = G.list_size (G.int_range 0 8) gen_record in
  let* steps =
    G.list_size (G.int_range 1 20)
      (G.frequency
         [ (6, gen_query int_ids); (3, gen_dml int_ids);
           (1, G.map (fun r -> Choice r) gen_record);
         ])
  in
  G.return
    { int_ids;
      default;
      setup =
        (create_sql "records" ~int_id:records_int :: records_rows)
        @ (create_sql "visits" ~int_id:visits_int :: visits_rows);
      steps = List.map (fun r -> Choice r) history @ steps;
    }

(* --- running a scenario on both sides --- *)

type seen = {
  rows : R.Row.t list;
  sql : string;
  masked : string list;
  excluded : string list;
  btg : bool;
  disclosed : string list;
}

type verdict =
  | Ran of seen
  | Denied
  | Failed of string

let verdict_to_string = function
  | Ran s ->
    Printf.sprintf "ran %s%s: %d rows, excluded [%s], disclosed [%s], masked [%s]" s.sql
      (if s.btg then " (BTG)" else "") (List.length s.rows) (String.concat "; " s.excluded)
      (String.concat "; " s.disclosed) (String.concat "; " s.masked)
  | Denied -> "denied"
  | Failed why -> "failed: " ^ why

let dedupe = List.sort_uniq String.compare

(* The rules every scenario runs under. *)
let make_rules () =
  let rules = Privacy_rules.create ~vocab in
  List.iter
    (fun (data, purpose, authorized) -> Privacy_rules.add rules ~data ~purpose ~authorized ())
    [ ("routine", "treatment", "nurse"); ("demographic", "billing", "clerk");
      ("psychiatry", "treatment", "psychiatrist"); ("referral", "registration", "doctor");
    ];
  rules

(* What enforcement with the row-scan exclusion answers: masking and
   denial come from [Enforcement.rewrite] (unchanged by the index), the
   NOT IN lists from [scan_exclusion], and the rows from [twin], an engine
   with the same tables that enforcement never touched, so it has no
   index.  Audit entries go to [logger] exactly as enforcement logs them.
   Also returns the tables that got a NOT IN list. *)
let oracle_query enforcement twin logger ~consent q =
  let user = "u" and role = q.role and purpose = q.purpose and projected = q.projected in
  let select =
    match R.Engine.parse q.sql with R.Sql_ast.Select s -> s | _ -> assert false
  in
  let requested = dedupe (List.filter_map (fun (t, c) -> category_of t c) projected) in
  let log op status categories =
    ignore (Audit_logger.tick logger);
    List.iter
      (fun data -> Audit_logger.log logger ~op ~user ~data ~purpose ~authorized:role ~status)
      categories
  in
  let run select = (R.Engine.query_select twin select).R.Executor.rows in
  match Enforcement.rewrite enforcement { Enforcement.user; role; purpose } select with
  | Ok (rewritten, masked, _, disclosed) -> (
    let exclusions =
      List.filter_map
        (fun table ->
          let categories =
            List.filter_map
              (fun (t, c) -> if String.equal t table then category_of t c else None)
              projected
            |> List.filter (fun c -> List.mem c disclosed)
            |> dedupe
          in
          if categories = [] then None
          else
            match scan_exclusion twin consent ~table ~purpose ~categories with
            | [] -> None
            | excluded -> Some (table, excluded))
        q.scope
    in
    let where =
      List.fold_left
        (fun where (table, excluded) ->
          let exclusion =
            R.Sql_ast.In_list
              { scrutinee = R.Sql_ast.Col { qualifier = Some table; name = "patient" };
                negated = true;
                items = List.map (fun (_, v) -> R.Sql_ast.Lit v) excluded;
              }
          in
          Some (match where with Some w -> R.Sql_ast.and_ w exclusion | None -> exclusion))
        select.R.Sql_ast.where exclusions
    in
    let expected = { rewritten with R.Sql_ast.where } in
    match run expected with
    | exception e -> (Failed (Printexc.to_string e), [])
    | rows ->
      if disclosed <> [] then log Audit_schema.Allow Audit_schema.Regular disclosed;
      ( Ran
          { rows;
            sql = R.Sql_ast.select_to_sql expected;
            masked;
            excluded = dedupe (List.concat_map (fun (_, ex) -> List.map fst ex) exclusions);
            btg = false;
            disclosed;
          },
        List.map fst exclusions ))
  | Error (Enforcement.Denied _) when q.break_glass -> (
    match run select with
    | exception e -> (Failed (Printexc.to_string e), [])
    | rows ->
      log Audit_schema.Allow Audit_schema.Exception_based requested;
      ( Ran
          { rows; sql = R.Sql_ast.select_to_sql select; masked = []; excluded = []; btg = true;
            disclosed = requested;
          },
        [] ))
  | Error (Enforcement.Denied _) ->
    log Audit_schema.Disallow Audit_schema.Regular requested;
    (Denied, [])
  | Error (Enforcement.Unsupported why) -> (Failed ("unsupported: " ^ why), [])

let real_query enforcement q =
  match
    Enforcement.run_query ~break_glass:q.break_glass enforcement
      { Enforcement.user = "u"; role = q.role; purpose = q.purpose }
      q.sql
  with
  | Ok o ->
    Ran
      { rows = o.Enforcement.result.R.Executor.rows;
        sql = o.Enforcement.rewritten_sql;
        masked = o.Enforcement.masked_columns;
        excluded = o.Enforcement.excluded_patients;
        btg = o.Enforcement.break_glass;
        disclosed = o.Enforcement.disclosed_categories;
      }
  | Error (Enforcement.Denied _) -> Denied
  | Error (Enforcement.Unsupported why) -> Failed ("unsupported: " ^ why)
  | exception e -> Failed (Printexc.to_string e)

(* Runs [s] through real enforcement and through the oracle.  [Ok] carries
   the tables that got a NOT IN list, one per excluding query; [Error]
   names the first step where the two sides disagree. *)
let differential s =
  let engine = R.Engine.create () and twin = R.Engine.create () in
  let consent = Consent.create ~default:s.default ~vocab () in
  let categories = Category_map.create () in
  let logger = Audit_logger.create () and oracle_logger = Audit_logger.create () in
  (* Designated before the tables exist. *)
  List.iter
    (fun table ->
      Category_map.set_patient_column categories ~table ~column:"patient";
      List.iter
        (fun (column, category) -> Category_map.set_category categories ~table ~column ~category)
        (mapped_columns table))
    tables;
  let enforcement =
    Enforcement.create ~engine ~rules:(make_rules ()) ~consent ~categories ~logger
  in
  let exec sql =
    ignore (R.Engine.exec engine sql);
    ignore (R.Engine.exec twin sql)
  in
  List.iter exec s.setup;
  let rec go i excluding = function
    | [] -> Ok excluding
    | Exec sql :: rest ->
      exec sql;
      go (i + 1) excluding rest
    | Choice r :: rest ->
      Consent.record consent ~patient:r.Consent.patient ~purpose:r.Consent.purpose
        ~data:r.Consent.data r.Consent.choice;
      go (i + 1) excluding rest
    | (Query q as step) :: rest ->
      let real = real_query enforcement q in
      let expected, tables = oracle_query enforcement twin oracle_logger ~consent q in
      let fail what =
        Error
          (Printf.sprintf "step %d (%s): %s\n  indexed: %s\n  oracle:  %s" i
             (step_to_string step) what (verdict_to_string real) (verdict_to_string expected))
      in
      (match expected with
      | Failed _ -> fail "the oracle failed"
      | Ran _ | Denied ->
        if real <> expected then fail "outcomes differ"
        else if Audit_logger.entries logger <> Audit_logger.entries oracle_logger then
          fail "audit entries differ"
        else go (i + 1) (tables @ excluding) rest)
  in
  go 0 [] s.steps

let prop_indexed_matches_scan =
  QCheck2.Test.make ~name:"indexed exclusion = row-scan oracle" ~count:1000
    ~print:scenario_to_string gen_scenario (fun s ->
      match differential s with
      | Ok _ -> true
      | Error why -> QCheck2.Test.fail_report why)

(* The property is not vacuous: on a fixed sample, queries get NOT IN
   lists on INTEGER and TEXT columns under both store defaults. *)
let test_oracle_reaches_exclusions () =
  let rand = Random.State.make [| 7 |] in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 200 do
    let s = G.generate1 ~rand gen_scenario in
    match differential s with
    | Error why -> Alcotest.fail why
    | Ok excluding ->
      List.iter
        (fun table ->
          let key = (List.assoc table s.int_ids, s.default) in
          Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
        excluding
  done;
  List.iter
    (fun ((int_id, default) as key) ->
      let n = Option.value (Hashtbl.find_opt counts key) ~default:0 in
      if n < 10 then
        Alcotest.failf "only %d excluding queries on %s columns under an %s store" n
          (if int_id then "INTEGER" else "TEXT")
          (choice_to_string default))
    [ (true, Consent.Opt_in); (false, Consent.Opt_in); (true, Consent.Opt_out);
      (false, Consent.Opt_out);
    ]

(* --- the index's lifecycle --- *)

let clinical_sql =
  [ "CREATE TABLE records (patient TEXT, referral TEXT)";
    "INSERT INTO records VALUES ('p1', 'r1'), ('p2', 'r2'), ('p3', 'r3')";
  ]

let make_control ?(designate_first = false) () =
  let control = Control_center.create ~vocab () in
  let designate () =
    Control_center.set_patient_column control ~table:"records" ~column:"patient";
    Control_center.map_column control ~table:"records" ~column:"referral" ~category:"referral"
  in
  if designate_first then designate ();
  List.iter (fun sql -> ignore (Control_center.admin_exec control sql)) clinical_sql;
  if not designate_first then designate ();
  Control_center.permit control ~data:"routine" ~purpose:"treatment" ~authorized:"nurse";
  List.iter
    (fun patient ->
      Control_center.opt_out control ~patient ~purpose:"treatment" ~data:"referral")
    [ "p2"; "p4"; "p9" ];
  control

let admin control sql = ignore (Control_center.admin_exec control sql)

(* Runs the permitted full select; checks the NOT IN list, in order, and
   the patients whose rows came back, and checks that the row-scan oracle
   excludes the same patients in the same order. *)
let expect control ~excluded ~returned =
  let oracle =
    scan_exclusion (Control_center.engine control) (Control_center.consent control)
      ~table:"records" ~purpose:"treatment" ~categories:[ "referral" ]
  in
  check_strings "the row-scan oracle's NOT IN list" excluded (List.map fst oracle);
  match
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
      "SELECT patient, referral FROM records"
  with
  | Error e -> Alcotest.failf "denied: %s" (Enforcement.error_to_string e)
  | Ok o ->
    check_strings "excluded patients" (dedupe excluded) o.Enforcement.excluded_patients;
    Alcotest.(check string) "NOT IN list, in first-row order"
      ("SELECT patient, referral FROM records"
      ^
      if excluded = [] then ""
      else
        " WHERE records.patient NOT IN ("
        ^ String.concat ", " (List.map (Printf.sprintf "'%s'") excluded)
        ^ ")")
      o.Enforcement.rewritten_sql;
    check_strings "returned patients" returned
      (List.map
         (fun row -> V.to_string (R.Row.get row 0))
         o.Enforcement.result.R.Executor.rows)

let test_after_insert () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  admin control "INSERT INTO records VALUES ('p4', 'r4'), ('p5', 'r5')";
  expect control ~excluded:[ "p2"; "p4" ] ~returned:[ "p1"; "p3"; "p5" ]

let test_after_delete () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  admin control "DELETE FROM records WHERE patient = 'p2'";
  expect control ~excluded:[] ~returned:[ "p1"; "p3" ]

let test_after_update () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  (* p1 becomes p9, who opted out; p2 becomes p7, who did not. *)
  admin control "UPDATE records SET patient = 'p9' WHERE patient = 'p1'";
  admin control "UPDATE records SET patient = 'p7' WHERE patient = 'p2'";
  expect control ~excluded:[ "p9" ] ~returned:[ "p7"; "p3" ]

let test_after_drop_and_create () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  admin control "DROP TABLE records";
  admin control "CREATE TABLE records (patient TEXT, referral TEXT)";
  admin control "INSERT INTO records VALUES ('p4', 'r4'), ('p3', 'r3'), ('p2', 'r2')";
  expect control ~excluded:[ "p4"; "p2" ] ~returned:[ "p3" ]

(* The exclusion cache (DESIGN.md §18): the same query before and after
   one change, each answer checked against the row-scan oracle. *)
let test_opt_out_in_between () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  Control_center.opt_out control ~patient:"p3" ~purpose:"treatment" ~data:"referral";
  expect control ~excluded:[ "p2"; "p3" ] ~returned:[ "p1" ]

let test_re_opt_in_in_between () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  Control_center.opt_in control ~patient:"p2" ~purpose:"treatment" ~data:"referral";
  expect control ~excluded:[] ~returned:[ "p1"; "p2"; "p3" ]

(* p4 opted out before any row named p4. *)
let test_recorded_patient_first_row () =
  let control = make_control () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ];
  admin control "INSERT INTO records VALUES ('p4', 'r4')";
  expect control ~excluded:[ "p2"; "p4" ] ~returned:[ "p1"; "p3" ]

(* p2's second row comes after p3's only row; the list stays in first-row
   order. *)
let test_excluded_patient_second_row () =
  let control = make_control () in
  Control_center.opt_out control ~patient:"p3" ~purpose:"treatment" ~data:"referral";
  expect control ~excluded:[ "p2"; "p3" ] ~returned:[ "p1" ];
  admin control "INSERT INTO records VALUES ('p2', 'r9')";
  expect control ~excluded:[ "p2"; "p3" ] ~returned:[ "p1" ]

let test_designated_before_table () =
  let control = make_control ~designate_first:true () in
  expect control ~excluded:[ "p2" ] ~returned:[ "p1"; "p3" ]

(* --- the governance consequence --- *)

(* A strict tuple quota below the table size: the index turns a point
   select on the patient column into a one-row probe, while a predicate on
   an unindexed column still materialises every row. *)
let test_strict_quota () =
  let control = make_control () in
  admin control "INSERT INTO records VALUES ('p5', 'r5'), ('p6', 'r6')";
  Control_center.set_query_limits control (Some (R.Budget.limits ~tuples:2 ()));
  let query sql =
    Control_center.query control ~user:"tim" ~role:"nurse" ~purpose:"treatment" sql
  in
  (match query "SELECT referral FROM records WHERE patient = 'p3'" with
  | Ok o -> check_int "point select completes" 1 (List.length o.Enforcement.result.R.Executor.rows)
  | Error e -> Alcotest.failf "denied: %s" (Enforcement.error_to_string e));
  match query "SELECT referral FROM records WHERE referral = 'r3'" with
  | exception R.Errors.Budget_exceeded (R.Errors.Tuples, _) -> ()
  | Ok _ -> Alcotest.fail "an unindexed predicate completed under a quota below the table size"
  | Error e -> Alcotest.failf "denied: %s" (Enforcement.error_to_string e)

let () =
  Alcotest.run "consent-index"
    [ ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_indexed_matches_scan;
          Alcotest.test_case "oracle reaches exclusions" `Quick
            test_oracle_reaches_exclusions;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "insert" `Quick test_after_insert;
          Alcotest.test_case "delete" `Quick test_after_delete;
          Alcotest.test_case "update of a patient id" `Quick test_after_update;
          Alcotest.test_case "drop and create" `Quick test_after_drop_and_create;
          Alcotest.test_case "designated before the table exists" `Quick
            test_designated_before_table;
          Alcotest.test_case "opt-out recorded in between" `Quick test_opt_out_in_between;
          Alcotest.test_case "re-opt-in recorded in between" `Quick test_re_opt_in_in_between;
          Alcotest.test_case "a recorded patient's first row" `Quick
            test_recorded_patient_first_row;
          Alcotest.test_case "an excluded patient's second row" `Quick
            test_excluded_patient_second_row;
        ] );
      ("governance", [ Alcotest.test_case "strict tuple quota" `Quick test_strict_quota ]);
    ]
