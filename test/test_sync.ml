(* Incremental audit sync against its from-scratch oracle.

   [System.sync_audit] codes only what a fresh consolidation appends to
   the previous one into Prima's coded P_AL, and builds P_AL's rules only
   when asked.  The oracle is the path both replace: a twin System that
   receives the same operations but has [Prima.reset_audit] called before
   each of its requests, which forces a full rebuild every time.  Random
   schedules mix appends (late entries with earlier timestamps among
   them), outages and heals with an archive attached, corrupted fetches,
   crash-reseated sites, vocabulary edits and outside resets; after every
   request the twins must agree on P_AL as a sequence, on both coverage
   readings (uncovered lists included) and on the epoch reports. *)

module Sys_ = Prima_system.System
module Prima = Prima_core.Prima
module P = Prima_core.Policy
module R = Prima_core.Rule
module C = Prima_core.Coverage
module Ref = Prima_core.Refinement
module Fault = Audit_mgmt.Fault
module Federation = Audit_mgmt.Federation
module Site = Audit_mgmt.Site
module E = Hdb.Audit_schema

let check_bool = Alcotest.(check bool)

let vocab () = Vocabulary.Samples.figure1 ()

let values attr = Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy (vocab ()) attr)

let datas = Array.of_list (values Vocabulary.Audit_attrs.data)
let purposes = Array.of_list (values Vocabulary.Audit_attrs.purpose)
let roles = Array.of_list (values Vocabulary.Audit_attrs.authorized)
let users = [| "mark"; "tim"; "bob"; "olga"; "ann" |]

let n_sites = 3

(* --- schedules --- *)

(* [uniform] entries differ only in their timestamps, so a late one is
   told apart from the entries it displaces by its time alone. *)
type op =
  | Append of { site : int; count : int; seed : int; sync : bool; uniform : bool }
  | Late of { site : int; back : int; seed : int; uniform : bool }
      (** one entry older than entries already consolidated *)
  | Outage of int
  | Heal of int
  | Corrupt of { site : int; seed : int }  (** fetches damage records from now on *)
  | Crash of int  (** power-cut the site's WAL, reopen it, reseat it *)
  | Vocab_edit of int
  | Outside_reset  (** P_AL replaced behind System's back *)
  | Coverage
  | Refine

let op_to_string = function
  | Append { site; count; seed; sync; uniform } ->
    Printf.sprintf "append(site %d, %d, seed %d%s%s)" site count seed
      (if sync then ", synced" else "")
      (if uniform then ", uniform" else "")
  | Late { site; back; seed; uniform } ->
    Printf.sprintf "late(site %d, -%d, seed %d%s)" site back seed
      (if uniform then ", uniform" else "")
  | Outage i -> Printf.sprintf "outage(%d)" i
  | Heal i -> Printf.sprintf "heal(%d)" i
  | Corrupt { site; seed } -> Printf.sprintf "corrupt(site %d, seed %d)" site seed
  | Crash i -> Printf.sprintf "crash(%d)" i
  | Vocab_edit k -> Printf.sprintf "vocab-edit(%d)" k
  | Outside_reset -> "outside-reset"
  | Coverage -> "coverage"
  | Refine -> "refine"

let gen_op : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let site = int_bound (n_sites - 1) in
  frequency
    [ ( 8,
        let* site = site and* count = int_range 1 12 and* seed = int_bound 10_000
        and* sync = bool and* uniform = bool in
        return (Append { site; count; seed; sync; uniform }) );
      ( 2,
        let* site = site and* back = int_range 1 40 and* seed = int_bound 10_000
        and* uniform = bool in
        return (Late { site; back; seed; uniform }) );
      (1, map (fun i -> Outage i) site);
      (2, map (fun i -> Heal i) site);
      ( 1,
        let* site = site and* seed = int_bound 10_000 in
        return (Corrupt { site; seed }) );
      (1, map (fun i -> Crash i) site);
      (1, map (fun k -> Vocab_edit k) (int_bound 1_000));
      (1, return Outside_reset);
      (6, return Coverage);
      (3, return Refine);
    ]

let gen_schedule = QCheck2.Gen.(list_size (int_range 10 40) gen_op)

let print_schedule ops = String.concat "; " (List.map op_to_string ops)

(* --- one System, driven by a schedule --- *)

type twin = {
  sys : Sys_.t;
  faults : Fault.t array;
  mutable next_time : int;
  mutable edits : int;
}

let site_name i = Printf.sprintf "site-%d" i

let make_twin () =
  let sys = Sys_.create ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) () in
  let faults =
    Array.init n_sites (fun i ->
        let site = Site.create ~name:(site_name i) () in
        Site.attach_wal site (Durable.Log.create ~seed:(i + 1) ());
        let fault = Fault.wrap ~config:Fault.no_faults ~seed:(100 + i) site in
        Sys_.add_faulty_site sys fault;
        fault)
  in
  Sys_.attach_archive sys (Audit_mgmt.Shard_store.create ~seed:7 ());
  { sys; faults; next_time = 1; edits = 0 }

let pick rng a = a.(Splitmix.int rng (Array.length a))

(* Exception-based entries dominate, so refinement has practice to mine. *)
let gen_entry rng ~uniform ~time =
  if uniform then
    E.entry ~time ~op:E.Allow ~user:users.(0) ~data:datas.(0) ~purpose:purposes.(0)
      ~authorized:roles.(0) ~status:E.Exception_based
  else
    E.entry ~time
      ~op:(if Splitmix.bool rng ~probability:0.9 then E.Allow else E.Disallow)
      ~user:(pick rng users) ~data:(pick rng datas) ~purpose:(pick rng purposes)
      ~authorized:(pick rng roles)
      ~status:(if Splitmix.bool rng ~probability:0.7 then E.Exception_based else E.Regular)

let site_of tw i = Fault.site tw.faults.(i)

let apply tw = function
  | Append { site; count; seed; sync; uniform } ->
    let rng = Splitmix.create ~seed in
    let entries =
      List.init count (fun k -> gen_entry rng ~uniform ~time:(tw.next_time + k))
    in
    tw.next_time <- tw.next_time + count;
    Site.ingest_entries (site_of tw site) entries;
    if sync then Site.sync_wal (site_of tw site)
  | Late { site; back; seed; uniform } ->
    let rng = Splitmix.create ~seed in
    let time = max 0 (tw.next_time - back) in
    Site.ingest_entries (site_of tw site) [ gen_entry rng ~uniform ~time ]
  | Outage i -> Fault.take_down tw.faults.(i)
  | Heal i -> Fault.heal tw.faults.(i)
  | Corrupt { site; seed } ->
    let fault =
      Fault.wrap ~config:{ Fault.no_faults with p_corrupt = 0.2 } ~seed (site_of tw site)
    in
    tw.faults.(site) <- fault;
    Federation.set_fault (Sys_.federation tw.sys) (site_name site) (Some fault)
  | Crash i ->
    let log = Option.get (Site.wal (site_of tw i)) in
    let wal = Durable.Log.wal_device log and snapshot = Durable.Log.snapshot_device log in
    Durable.Device.crash wal ~point:Durable.Device.Clean_loss;
    Durable.Device.crash snapshot ~point:Durable.Device.Clean_loss;
    let site, _, _ =
      Site.open_durable ~name:(site_name i) (Durable.Log.of_devices ~wal ~snapshot)
    in
    Sys_.reseat_site tw.sys (site_name i) site
  | Vocab_edit k ->
    let parent = datas.(k mod Array.length datas) in
    let leaf = Printf.sprintf "edit-%d-%d" k tw.edits in
    tw.edits <- tw.edits + 1;
    Sys_.set_vocab tw.sys
      (Vocabulary.Vocab.with_leaf (Sys_.vocab tw.sys) ~attr:Vocabulary.Audit_attrs.data
         ~parent ~value:leaf)
  | Outside_reset | Coverage | Refine -> ()

(* --- comparing the twins --- *)

let rules_equal = List.equal R.equal

let stats_equal (a : C.stats) (b : C.stats) =
  a.C.overlap = b.C.overlap
  && a.C.denominator = b.C.denominator
  && Float.equal a.C.coverage b.C.coverage
  && rules_equal a.C.uncovered b.C.uncovered

let qualified_equal (a : C.qualified) (b : C.qualified) =
  stats_equal a.C.stats b.C.stats && a.C.qualifier = b.C.qualifier

let epoch_equal (a : Ref.epoch_report) (b : Ref.epoch_report) =
  a.Ref.practice_size = b.Ref.practice_size
  && rules_equal a.Ref.patterns b.Ref.patterns
  && rules_equal a.Ref.useful b.Ref.useful
  && rules_equal a.Ref.accepted b.Ref.accepted
  && rules_equal (P.rules a.Ref.p_ps') (P.rules b.Ref.p_ps')
  && stats_equal a.Ref.coverage_before b.Ref.coverage_before
  && stats_equal a.Ref.coverage_after b.Ref.coverage_after
  && a.Ref.qualifier = b.Ref.qualifier

let audit_rules tw = P.rules (Prima.audit_policy (Sys_.prima tw.sys))

(* Run a schedule on the incremental System and its from-scratch twin;
   [Error] names the first step where they disagree. *)
let run_twins ops =
  let inc = make_twin () and scratch = make_twin () in
  let rec go step = function
    | [] -> Ok ()
    | op :: rest ->
      apply inc op;
      apply scratch op;
      let fail what = Error (Printf.sprintf "step %d (%s): %s" step (op_to_string op) what) in
      let request () = Prima.reset_audit (Sys_.prima scratch.sys) in
      let agreed =
        match op with
        | Outside_reset ->
          Prima.reset_audit (Sys_.prima inc.sys);
          None
        | Coverage ->
          request ();
          let a = Sys_.coverage_qualified inc.sys and b = Sys_.coverage_qualified scratch.sys in
          Some
            (qualified_equal a.Sys_.set_semantics b.Sys_.set_semantics
            && qualified_equal a.Sys_.bag_semantics b.Sys_.bag_semantics)
        | Refine -> (
          request ();
          match (Sys_.refine inc.sys, Sys_.refine scratch.sys) with
          | Ok a, Ok b -> Some (epoch_equal a b)
          | Error a, Error b -> Some (String.equal a b)
          | _ -> Some false)
        | _ -> None
      in
      (match agreed with
      | Some false -> fail "coverage or epoch report differs"
      | Some true when not (rules_equal (audit_rules inc) (audit_rules scratch)) ->
        fail "P_AL differs as a sequence"
      | _ -> go (step + 1) rest)
  in
  go 1 ops

let prop_incremental_sync_matches_rebuild =
  QCheck2.Test.make ~name:"incremental sync = from-scratch rebuild" ~count:100
    ~print:print_schedule gen_schedule (fun ops ->
      match run_twins ops with
      | Ok () -> true
      | Error why -> QCheck2.Test.fail_report why)

(* --- Prima's coverage over P_AL's codes --- *)

type prima_op =
  | Ingest of R.t list
  | Reset

let gen_audit_rule : R.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* d = oneofa datas and* p = oneofa purposes and* a = oneofa roles
  and* time = int_bound 50 and* keep = list_repeat 3 bool
  and* op = oneofl [ Vocabulary.Audit_attrs.op_allow; Vocabulary.Audit_attrs.op_disallow ]
  and* status =
    oneofl [ Vocabulary.Audit_attrs.status_regular; Vocabulary.Audit_attrs.status_exception ]
  and* user = oneofa users in
  (* [keep] drops pattern attributes at random, sometimes all three, so
     some rules leave no trace in the projection; the small pools repeat
     users and pattern groups, and op and status set both flag bits *)
  let pattern =
    List.filteri
      (fun i _ -> List.nth keep i)
      [ (Vocabulary.Audit_attrs.data, d);
        (Vocabulary.Audit_attrs.purpose, p);
        (Vocabulary.Audit_attrs.authorized, a);
      ]
  in
  return
    (R.of_assoc
       ((Vocabulary.Audit_attrs.time, string_of_int time)
       :: (Vocabulary.Audit_attrs.op, op)
       :: (Vocabulary.Audit_attrs.status, status)
       :: (Vocabulary.Audit_attrs.user, user)
       :: pattern))

let gen_prima_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (frequency
       [ (5, map (fun rules -> Ingest rules) (list_size (int_range 0 6) gen_audit_rule));
         (1, return Reset);
       ])

let print_prima_ops ops =
  String.concat "; "
    (List.map
       (function
         | Ingest rules -> "ingest [" ^ String.concat ", " (List.map R.to_string rules) ^ "]"
         | Reset -> "reset")
       ops)

let prop_prima_coverage_is_aligned =
  QCheck2.Test.make ~name:"Prima.coverage = Coverage.aligned over audit_policy" ~count:300
    ~print:print_prima_ops gen_prima_ops (fun ops ->
      let v = vocab () in
      let prima = Prima.create ~vocab:v ~p_ps:(Workload.Scenario.policy_store ()) () in
      List.for_all
        (fun op ->
          (match op with
          | Ingest rules -> Prima.ingest_rules prima rules
          | Reset -> Prima.reset_audit prima);
          let live = Prima.coverage prima in
          let aligned bag =
            C.aligned ~bag v ~attrs:Vocabulary.Audit_attrs.pattern
              ~p_x:(Prima.policy_store prima) ~p_y:(Prima.audit_policy prima)
          in
          stats_equal live.Prima.set_semantics (aligned false)
          && stats_equal live.Prima.bag_semantics (aligned true))
        ops)

(* --- the fast path is taken exactly when it may be --- *)

(* After an append-only sync P_AL keeps its old rules (the same values);
   a rebuild converts every entry again into fresh ones. *)
let test_append_reuses_prefix () =
  let tw = make_twin () in
  let ingest op = apply tw op in
  ingest (Append { site = 0; count = 5; seed = 1; sync = true; uniform = false });
  ingest (Append { site = 1; count = 5; seed = 2; sync = true; uniform = false });
  ignore (Sys_.coverage_qualified tw.sys);
  let first () = List.hd (audit_rules tw) in
  let before = first () in
  ingest (Append { site = 2; count = 4; seed = 3; sync = true; uniform = false });
  ignore (Sys_.coverage_qualified tw.sys);
  check_bool "appended entries reuse the converted prefix" true (first () == before);
  Alcotest.(check int) "all entries present" 14 (List.length (audit_rules tw));
  ingest (Late { site = 0; back = 12; seed = 4; uniform = false });
  ignore (Sys_.coverage_qualified tw.sys);
  check_bool "a late entry rebuilds P_AL" false (first () == before);
  let before = first () in
  Prima.reset_audit (Sys_.prima tw.sys);
  ignore (Sys_.coverage_qualified tw.sys);
  check_bool "an outside reset rebuilds P_AL" false (first () == before);
  Alcotest.(check int) "rebuilt in full" 15 (List.length (audit_rules tw))

(* Rules ingested from outside between two requests leave the installed
   trail at another length: the next sync rebuilds P_AL from the merge,
   dropping them. *)
let test_outside_ingest_rebuilds () =
  let tw = make_twin () in
  apply tw (Append { site = 0; count = 6; seed = 5; sync = true; uniform = false });
  ignore (Sys_.coverage_qualified tw.sys);
  let first () = List.hd (audit_rules tw) in
  let before = first () in
  let outside = R.of_assoc [ (Vocabulary.Audit_attrs.data, datas.(0)) ] in
  Prima.ingest_rules (Sys_.prima tw.sys) [ outside ];
  Alcotest.(check int) "the outside rule is in P_AL" 7 (List.length (audit_rules tw));
  ignore (Sys_.coverage_qualified tw.sys);
  check_bool "an outside ingest rebuilds P_AL" false (first () == before);
  Alcotest.(check int) "rebuilt from the merge alone" 6 (List.length (audit_rules tw));
  check_bool "the outside rule is gone" false (List.exists (R.equal outside) (audit_rules tw))

(* --- bounded intern table --- *)

(* One term per distinct timestamp, past the bound: the table never holds
   more than its limit, and terms interned on either side of a reset still
   compare, hash and build rules as equal. *)
let test_intern_table_bounded () =
  let module T = Prima_core.Rule_term in
  let term time = T.make ~attr:Vocabulary.Audit_attrs.time ~value:(string_of_int time) in
  let early = term 0 in
  for time = 1 to T.intern_limit + 1_000 do
    ignore (term time);
    if T.interned () > T.intern_limit then Alcotest.fail "intern table outgrew its limit"
  done;
  check_bool "table stays within its limit" true (T.interned () <= T.intern_limit);
  let late = term 0 in
  check_bool "a reset came in between" false (T.value early == T.value late);
  check_bool "equal across a reset" true (T.equal_syntactic early late);
  Alcotest.(check int) "compare across a reset" 0 (T.compare early late);
  Alcotest.(check int) "hash across a reset" (T.hash early) (T.hash late);
  let rule t = R.make [ t; T.make ~attr:Vocabulary.Audit_attrs.data ~value:"referral" ] in
  check_bool "rules equal across a reset" true (R.equal (rule early) (rule late))

let () =
  Alcotest.run "sync"
    [ ( "oracle",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_incremental_sync_matches_rebuild; prop_prima_coverage_is_aligned ] );
      ( "fast-path",
        [ Alcotest.test_case "append reuses the converted prefix" `Quick
            test_append_reuses_prefix;
          Alcotest.test_case "an outside ingest rebuilds P_AL" `Quick
            test_outside_ingest_rebuilds;
        ] );
      ( "intern",
        [ Alcotest.test_case "intern table bounded" `Quick test_intern_table_bounded ] );
    ]
