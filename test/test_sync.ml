(* Incremental audit sync against its from-scratch oracle.

   [System.sync_audit] asks the federation for only what arrived since its
   last consolidation, codes that extension into Prima's coded P_AL, and
   builds P_AL's rules only when asked.  The oracle is the path both
   replace: a twin System that receives the same operations but has
   [Prima.reset_audit] called before each of its requests, which forces a
   whole consolidation and a full rebuild every time.  Random schedules
   mix appends (late entries with earlier timestamps among them, and ties
   at the newest timestamp from a lower site), outages and heals with an
   archive attached, corrupting wrappers and their clean replacements,
   crash-reseated sites, sites joining mid-schedule, consolidations from
   outside System, vocabulary edits and outside resets; after every
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
  | Tie of { lower : bool; seed : int; uniform : bool }
      (** one entry at the newest timestamp handed out, at the site below
          the highest one holding it ([lower]) or at that site *)
  | Outage of int
  | Heal of int
  | Corrupt of { site : int; seed : int }  (** fetches damage records from now on *)
  | Clean of { site : int; seed : int }  (** a fresh fault-free wrapper replaces the site's *)
  | Crash of int  (** power-cut the site's WAL, reopen it, reseat it *)
  | Add_site of { count : int; seed : int }  (** a site joins with [count] new entries *)
  | Outside_consolidate  (** a consolidation outside System, between requests *)
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
  | Tie { lower; seed; uniform } ->
    Printf.sprintf "tie(%s, seed %d%s)" (if lower then "lower" else "same") seed
      (if uniform then ", uniform" else "")
  | Outage i -> Printf.sprintf "outage(%d)" i
  | Heal i -> Printf.sprintf "heal(%d)" i
  | Corrupt { site; seed } -> Printf.sprintf "corrupt(site %d, seed %d)" site seed
  | Clean { site; seed } -> Printf.sprintf "clean(site %d, seed %d)" site seed
  | Crash i -> Printf.sprintf "crash(%d)" i
  | Add_site { count; seed } -> Printf.sprintf "add-site(%d, seed %d)" count seed
  | Outside_consolidate -> "outside-consolidate"
  | Vocab_edit k -> Printf.sprintf "vocab-edit(%d)" k
  | Outside_reset -> "outside-reset"
  | Coverage -> "coverage"
  | Refine -> "refine"

(* Site indices past the initial [n_sites] reach the sites that join
   later; [apply] takes them modulo the sites present. *)
let gen_op : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let site = int_bound n_sites in
  frequency
    [ ( 8,
        let* site = site and* count = int_range 1 12 and* seed = int_bound 10_000
        and* sync = bool and* uniform = bool in
        return (Append { site; count; seed; sync; uniform }) );
      ( 2,
        let* site = site and* back = int_range 1 40 and* seed = int_bound 10_000
        and* uniform = bool in
        return (Late { site; back; seed; uniform }) );
      ( 2,
        let* lower = bool and* seed = int_bound 10_000 and* uniform = bool in
        return (Tie { lower; seed; uniform }) );
      (1, map (fun i -> Outage i) site);
      (2, map (fun i -> Heal i) site);
      ( 1,
        let* site = site and* seed = int_bound 10_000 in
        return (Corrupt { site; seed }) );
      ( 1,
        let* site = site and* seed = int_bound 10_000 in
        return (Clean { site; seed }) );
      (1, map (fun i -> Crash i) site);
      ( 1,
        let* count = int_range 0 6 and* seed = int_bound 10_000 in
        return (Add_site { count; seed }) );
      (1, return Outside_consolidate);
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
  mutable faults : Fault.t array;
  mutable next_time : int;
  mutable newest_site : int; (* the highest site holding [next_time - 1] *)
  mutable edits : int;
}

let site_name i = Printf.sprintf "site-%d" i

(* A WAL-backed site behind a fault-free wrapper, as the next member. *)
let join sys i =
  let site = Site.create ~name:(site_name i) () in
  Site.attach_wal site (Durable.Log.create ~seed:(i + 1) ());
  let fault = Fault.wrap ~config:Fault.no_faults ~seed:(100 + i) site in
  Sys_.add_faulty_site sys fault;
  fault

let make_twin () =
  let sys = Sys_.create ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) () in
  let faults = Array.init n_sites (join sys) in
  Sys_.attach_archive sys (Audit_mgmt.Shard_store.create ~seed:7 ());
  { sys; faults; next_time = 1; newest_site = 0; edits = 0 }

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

(* Fresh entries at the next timestamps, at site [i]. *)
let append_fresh tw i ~count ~seed ~uniform =
  let rng = Splitmix.create ~seed in
  let entries = List.init count (fun k -> gen_entry rng ~uniform ~time:(tw.next_time + k)) in
  tw.next_time <- tw.next_time + count;
  if count > 0 then tw.newest_site <- i;
  Site.ingest_entries (site_of tw i) entries

let swap_fault tw site fault =
  tw.faults.(site) <- fault;
  Federation.set_fault (Sys_.federation tw.sys) (site_name site) (Some fault)

let apply tw op =
  let sites = Array.length tw.faults in
  match op with
  | Append { site; count; seed; sync; uniform } ->
    let site = site mod sites in
    append_fresh tw site ~count ~seed ~uniform;
    if sync then Site.sync_wal (site_of tw site)
  | Late { site; back; seed; uniform } ->
    let rng = Splitmix.create ~seed in
    let time = max 0 (tw.next_time - back) in
    Site.ingest_entries (site_of tw (site mod sites)) [ gen_entry rng ~uniform ~time ]
  | Tie { lower; seed; uniform } ->
    (* at an equal time a lower site merges first, so a lower-site tie
       lands before the newest merged entry *)
    let site = if lower then max 0 (tw.newest_site - 1) else tw.newest_site in
    let rng = Splitmix.create ~seed in
    Site.ingest_entries (site_of tw site)
      [ gen_entry rng ~uniform ~time:(max 0 (tw.next_time - 1)) ]
  | Outage i -> Fault.take_down tw.faults.(i mod sites)
  | Heal i -> Fault.heal tw.faults.(i mod sites)
  | Corrupt { site; seed } ->
    let site = site mod sites in
    swap_fault tw site
      (Fault.wrap ~config:{ Fault.no_faults with p_corrupt = 0.2 } ~seed (site_of tw site))
  | Clean { site; seed } ->
    let site = site mod sites in
    swap_fault tw site (Fault.wrap ~config:Fault.no_faults ~seed (site_of tw site))
  | Add_site { count; seed } ->
    tw.faults <- Array.append tw.faults [| join tw.sys sites |];
    append_fresh tw sites ~count ~seed ~uniform:false
  | Outside_consolidate -> ignore (Federation.consolidated_result (Sys_.federation tw.sys))
  | Crash i ->
    let i = i mod sites in
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

let audit_rules_of sys = P.rules (Prima.audit_policy (Sys_.prima sys))
let audit_rules tw = audit_rules_of tw.sys

(* After a request, every member it delivered cleanly — live, nothing
   corrupted in transit — has the archive holding that member's stream
   record for record, in time order. *)
let archive_mirrors tw =
  let fed = Sys_.federation tw.sys in
  let archive = Option.get (Federation.archive fed) in
  let transit = Federation.transit_quarantine fed in
  let by_time = List.stable_sort (fun (a : E.entry) b -> Int.compare a.time b.time) in
  let mirrors (h : Audit_mgmt.Health.site_health) =
    match h.Audit_mgmt.Health.status with
    | Audit_mgmt.Health.Delivered _
      when Audit_mgmt.Quarantine.site_count transit ~site:h.Audit_mgmt.Health.site = 0 ->
      let site = Option.get (Federation.site fed h.Audit_mgmt.Health.site) in
      List.equal E.equal
        (by_time (Site.entries site))
        (Audit_mgmt.Shard_store.merged_site archive ~site:h.Audit_mgmt.Health.site)
    | _ -> true
  in
  match Sys_.last_health tw.sys with
  | Some h -> List.for_all mirrors h.Audit_mgmt.Health.sites
  | None -> true

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
      | Some true when not (archive_mirrors inc && archive_mirrors scratch) ->
        fail "the archive does not mirror a clean delivery"
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
  | Prima_refine  (** an epoch that adopts every useful pattern *)
  | Leaf of int  (** a new data leaf under [datas.(k mod _)] *)

(* [keep] drops pattern attributes at random, sometimes all three, so
   some rules leave no trace in the projection; the small pools repeat
   users and pattern groups, and op and status set both flag bits.  Half
   the rules draw pattern values from every value and keep each term 1
   time in 2; the other half draw them from a handful of values and keep
   each term 3 times in 4, so that groups repeat often enough for epochs
   to adopt patterns. *)
let gen_audit_rule : R.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let rule ~data ~purpose ~authorized ~kept =
    let* d = data and* p = purpose and* a = authorized
    and* time = int_bound 50 and* keep = list_repeat 3 kept
    and* op = oneofl [ Vocabulary.Audit_attrs.op_allow; Vocabulary.Audit_attrs.op_disallow ]
    and* status =
      oneofl [ Vocabulary.Audit_attrs.status_regular; Vocabulary.Audit_attrs.status_exception ]
    and* user = oneofa users in
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
  in
  frequency
    [ (1, rule ~data:(oneofa datas) ~purpose:(oneofa purposes) ~authorized:(oneofa roles) ~kept:bool);
      ( 1,
        rule
          ~data:(oneofl [ "referral"; "routine"; "psychiatry" ])
          ~purpose:(oneofl [ "treatment"; "registration" ])
          ~authorized:(oneofl [ "nurse"; "doctor" ])
          ~kept:(frequencyl [ (3, true); (1, false) ]) );
    ]

let gen_prima_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (frequency
       [ (5, map (fun rules -> Ingest rules) (list_size (int_range 0 6) gen_audit_rule));
         (1, return Reset);
         (2, return Prima_refine);
         (1, map (fun k -> Leaf k) (int_bound 1_000));
       ])

let print_prima_ops ops =
  String.concat "; "
    (List.map
       (function
         | Ingest rules -> "ingest [" ^ String.concat ", " (List.map R.to_string rules) ^ "]"
         | Reset -> "reset"
         | Prima_refine -> "refine"
         | Leaf k -> Printf.sprintf "leaf(%d)" k)
       ops)

(* After every operation both readings equal [Coverage.aligned] over the
   store and P_AL's rules; an epoch equals [Refinement.run_epoch] over
   them.  Epochs adopt every useful pattern of two or more practice
   entries, so they grow the store, and leaves change the vocabulary,
   under the trail's cached verdicts. *)
let eager =
  { Ref.default_config with
    Ref.backend =
      Prima_core.Extract_patterns.Sql
        { Prima_core.Data_analysis.default_config with Prima_core.Data_analysis.min_frequency = 2 }
  }

let prop_prima_coverage_is_aligned =
  QCheck2.Test.make ~name:"Prima.coverage = Coverage.aligned over audit_policy" ~count:300
    ~print:print_prima_ops gen_prima_ops (fun ops ->
      let prima =
        Prima.create ~config:eager ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) ()
      in
      List.for_all
        (fun op ->
          let epoch_agrees =
            match op with
            | Ingest rules ->
              Prima.ingest_rules prima rules;
              true
            | Reset ->
              Prima.reset_audit prima;
              true
            | Prima_refine -> (
              let reference =
                Ref.run_epoch ~config:(Prima.refinement_config prima) ~vocab:(Prima.vocab prima)
                  ~p_ps:(Prima.policy_store prima) ~p_al:(Prima.audit_policy prima) ()
              in
              match Prima.refine prima with
              | Ok report -> epoch_equal report reference
              | Error _ -> false)
            | Leaf k ->
              Prima.set_vocab prima
                (Vocabulary.Vocab.with_leaf (Prima.vocab prima) ~attr:Vocabulary.Audit_attrs.data
                   ~parent:datas.(k mod Array.length datas)
                   ~value:(Printf.sprintf "leaf-%d" (Vocabulary.Vocab.stamp (Prima.vocab prima))));
              true
          in
          let live = Prima.coverage prima in
          let aligned bag =
            C.aligned ~bag (Prima.vocab prima) ~attrs:Vocabulary.Audit_attrs.pattern
              ~p_x:(Prima.policy_store prima) ~p_y:(Prima.audit_policy prima)
          in
          epoch_agrees
          && stats_equal live.Prima.set_semantics (aligned false)
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

(* A crash loses a record the archive already holds, and a late record at
   the same time takes its place at the site: the twins must agree and
   the archive must mirror the site, not keep the lost record. *)
let test_crash_replaced_record () =
  let append site seed = Append { site; count = 1; seed; sync = false; uniform = false } in
  match
    run_twins
      [ append 0 1; Coverage; Crash 0; append 1 2;
        Late { site = 0; back = 2; seed = 3; uniform = false }; Coverage;
      ]
  with
  | Ok () -> ()
  | Error why -> Alcotest.fail why

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

(* The monitor workload's shape: four clean WAL-backed sites behind
   fault-free wrappers with an archive attached, then cycles of a
   24-entry batch dealt across them, each followed by a request (a refine
   every fifth).  Every request must extend P_AL — Prima keeps the trail
   it holds — and the transport must carry only the batch. *)
let test_monitor_cycles_extend () =
  let sys = Sys_.create ~vocab:(vocab ()) ~p_ps:(Workload.Scenario.policy_store ()) () in
  let sites = Array.init 4 (fun i -> Fault.site (join sys i)) in
  Sys_.attach_archive sys (Audit_mgmt.Shard_store.create ~seed:7 ());
  let rng = Splitmix.create ~seed:11 in
  let next_time = ref 1 in
  let deal n =
    for k = 0 to n - 1 do
      Site.ingest_entries sites.(k mod 4) [ gen_entry rng ~uniform:false ~time:(!next_time + k) ]
    done;
    next_time := !next_time + n;
    Array.iter Site.sync_wal sites
  in
  deal 400;
  ignore (Sys_.coverage_qualified sys);
  let trail = Prima.trail (Sys_.prima sys) in
  for cycle = 0 to 9 do
    deal 24;
    if cycle mod 5 = 2 then ignore (Sys_.refine sys) else ignore (Sys_.coverage_qualified sys);
    check_bool (Printf.sprintf "cycle %d extends P_AL" cycle) true
      (Prima.trail (Sys_.prima sys) == trail);
    let health = Option.get (Sys_.last_health sys) in
    Alcotest.(check int)
      (Printf.sprintf "cycle %d fetches the batch alone" cycle)
      24
      (List.fold_left
         (fun acc (h : Audit_mgmt.Health.site_health) -> acc + h.Audit_mgmt.Health.fetched)
         0 health.Audit_mgmt.Health.sites);
    Alcotest.(check int) "the window is the whole trail" (!next_time - 1)
      health.Audit_mgmt.Health.delivered
  done;
  check_bool "P_AL is the direct view, in order" true
    (rules_equal (audit_rules_of sys)
       (P.rules (Audit_mgmt.To_policy.policy_of_entries (Federation.consolidated (Sys_.federation sys)))))

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
          Alcotest.test_case "monitor-shaped cycles extend" `Quick test_monitor_cycles_extend;
        ] );
      ( "archive",
        [ Alcotest.test_case "a crash-replaced record is not kept" `Quick
            test_crash_replaced_record ] );
      ( "intern",
        [ Alcotest.test_case "intern table bounded" `Quick test_intern_table_bounded ] );
    ]
