(* Whole-system chaos harness.

   Drives a full [Prima_system.System] — durable storage, fault-injected
   federation, budgeted queries, the refinement loop — through a seeded
   [Schedule] of composed faults, while a pure [Model] oracle receives the
   same inputs fault-free.  After every step the harness checks ten
   invariants:

   1. no-loss            — across any crash+recover, the recovered clinical
                           store is a prefix of the model's entries and never
                           shorter than the durable floor (except under the
                           lying-fsync [Truncated_sync] point, which is
                           allowed to eat below it); consolidated output is
                           always a sub-multiset of the model trail.
   2. quarantine-exactly-once — the health accounting identity
                           delivered + quarantined + skipped = total holds;
                           quarantine items are unique per (site, seq); a
                           crash recovers exactly the synced item set.
   3. coverage-bound     — the system's coverage numerator and denominator
                           never exceed the model's exact readings (set and
                           bag), and a reading's reasons are exactly the
                           faults the harness injected: [Exact] for none,
                           else a [Lower_bound] naming each of them.
   4. recovery-idempotent — recovering the same devices twice yields
                           identical state, and the second pass drops
                           nothing new.
   5. convergence        — once faults stop, consolidation re-delivers the
                           whole trail, coverage equals the model's exact
                           stats, and a final refinement accepts exactly the
                           patterns the fault-free model epoch accepts.
   6. tamper-evidence    — every injected bit-flip of a previously accepted
                           (stable) audit record is reported as
                           [Tamper_detected] at the exact frame offset by the
                           next recovery, verifying twice gives the same
                           verdict, the mutated record is never read back as
                           accepted data, the rebuilt system carries a
                           [Tampered] reason at that offset and
                           [Lower_bound] coverage — and no
                           ordinary crash, however ugly, is ever classified
                           as tampering (zero false positives).
   7. site-local-recovery — a remote whose own WAL is power-cut recovers
                           locally: the rebuilt site is a prefix of its
                           ingested stream, never below its durable floor
                           (again excepting [Truncated_sync]), the crash is
                           never classified as tampering, recovery is
                           idempotent, a lossy recovery forces [Lower_bound]
                           coverage carrying [Wal_tail_lost] for that site
                           until the feed replays the lost suffix —
                           and after the replay the system re-converges to
                           [Exact].
   8. cache-coherence    — after a mid-run vocabulary edit (a taxonomy that
                           grew a leaf, adopted with a fresh stamp) the
                           system's coverage readings equal a from-scratch
                           recompute over the same policies under an
                           identically rebuilt vocabulary: no grounding
                           cache may serve an answer from the old stamp.
                           Checked at every edit and every consolidation.
   9. purpose-plausibility — every multi-step clinical plan the workload
                           emits is classified correctly by the prefix
                           conformance checker: untwisted instances conform
                           to their template, twisted ones (skipped step,
                           transposed steps, alien role) never do — the
                           violation is visible only as a sequence.
   10. admission-fairness — during an overload storm driven through the
                           admission gate's weighted-fair arbiter, every
                           non-storm tenant's admitted count equals its pure
                           token-bucket floor exactly (a 10:1 hot tenant
                           cannot starve the others), the storm tenant's own
                           count matches the bucket-and-drain-capacity
                           prediction, no mutation is ever browned out,
                           every shed carries an honest retry hint, and a
                           shed batch leaves no partial mutation behind
                           (store, sequence floor and quarantine all
                           untouched).

   The raw federation path carries its own mapping-coherence discipline:
   under the correct foreign-dialect mapping every raw record ingests and
   round-trips exactly; under a broken mapping every record quarantines
   (never drops); fixing the mapping reprocesses exactly the quarantined
   backlog, in sequence order, with nothing double-ingested.

   Everything is deterministic in the seed: the schedule, the workload, the
   fault wrappers and the device damage all draw from seeded Splitmix
   streams, so a violation replays from its seed alone — and, after
   [Shrink], from its minimized action list alone ([run_actions]).

   For shrinker tests the harness can also carry one injected defect — a
   deliberate bug switched on by [run_actions ~defect] — so there is a
   real, deterministic failure to minimize:

   - [Eat_entry k]   the k-th clinical append is silently dropped on the
                     system side (the model still sees it);
   - [Drop_replay]   the client forgets the first post-crash replay of the
                     lost unsynced suffix;
   - [Stale_vocab]   a vocabulary edit is adopted by the model and the
                     workload but never handed to the system, so its
                     grounding caches keep answering under the old stamp. *)

module Sys_ = Prima_system.System
module H = Audit_mgmt.Health
module Q = Audit_mgmt.Quarantine
module Site = Audit_mgmt.Site
module Adm = Audit_mgmt.Admission
module C = Prima_core.Coverage

type violation = {
  step : int;  (** 1-based schedule position; 0 = setup, steps+1 = epilogue *)
  action : string;
  invariant : string;
  detail : string;
}

type defect =
  | Eat_entry of int  (** swallow the [k]-th clinical append (1-based) *)
  | Drop_replay  (** skip the first post-crash replay of the lost suffix *)
  | Stale_vocab  (** never hand vocabulary edits to the system *)

let defect_to_string = function
  | Eat_entry k -> Printf.sprintf "eat-entry %d" k
  | Drop_replay -> "drop-replay"
  | Stale_vocab -> "stale-vocab"

let defect_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "eat-entry"; k ] ->
    (match int_of_string_opt k with Some k when k > 0 -> Some (Eat_entry k) | _ -> None)
  | [ "drop-replay" ] -> Some Drop_replay
  | [ "stale-vocab" ] -> Some Stale_vocab
  | _ -> None

type report = {
  seed : int;
  steps : int;
  mutable actions_run : int;
  mutable appended : int;  (** workload entries fed to the system (and model) *)
  mutable crashes : int;
  mutable site_crashes : int;  (** power cuts to a remote site's own WAL *)
  mutable site_recovered : int;  (** entries the crashed sites replayed from their WALs *)
  mutable site_replayed : int;  (** lost-suffix entries the feed re-sent after site crashes *)
  mutable consolidations : int;
  mutable refines_ok : int;
  mutable refines_rejected : int;  (** completeness below the adaptive floor *)
  mutable degraded_epochs : int;  (** governed extractions that hit their budget *)
  mutable enforce_trips : int;  (** typed budget/cancel trips on the enforcement path *)
  mutable tampers : int;  (** bit-flips injected into accepted (stable) records *)
  mutable tampers_detected : int;  (** of those, reported as [Tamper_detected] *)
  mutable raw_ingested : int;  (** raw foreign-dialect records mapped and ingested *)
  mutable raw_quarantined : int;  (** raw records a broken mapping sent to quarantine *)
  mutable reprocessed : int;  (** quarantined records re-ingested after a mapping fix *)
  mutable workflows : int;  (** purpose-workflow plan instances appended *)
  mutable twisted_workflows : int;  (** of those, plan-implausible (twisted) ones *)
  mutable vocab_edits : int;  (** mid-run vocabulary edits adopted *)
  mutable storms : int;  (** overload bursts driven through the admission gate *)
  mutable storm_admitted : int;  (** storm + probe requests the gate admitted *)
  mutable storm_shed : int;  (** storm + probe requests shed, all-or-nothing *)
  mutable events : string list;  (** step-by-step fault log, oldest first once returned *)
  mutable violation : violation option;
}

let passed r = r.violation = None

exception Violation of string * string  (** (invariant, detail) *)

(* ---------- internal state ---------- *)

type t = {
  report : report;  (** the counters, event log and verdict, updated in place *)
  model : Model.t;
  mutable sys : Sys_.t;
  archive : Audit_mgmt.Shard_store.t;  (** the durable consolidated archive *)
  faults : Audit_mgmt.Fault.t array;
  wconfig : Workload.Hospital.config;
  wf_rng : Splitmix.t;  (** drawn from only by workflow instantiation *)
  pool : Hdb.Audit_schema.entry array;  (** the pre-generated workload stream *)
  defect : defect option;
  mutable next_entry : int;
  mutable next_time : int;  (** global restamping clock: appended entries get
                                strictly increasing times in append order *)
  mutable q_floor : Q.item list;  (** sorted synced quarantine items *)
  mutable group_commit : bool;
  mutable auto_checkpoint : bool;
  mutable threshold : float option;  (** completeness threshold, if overridden *)
  mutable edits : (string * string) list;  (** (parent, leaf), oldest first *)
  pending : Hdb.Audit_schema.entry list array;
      (** per-remote raw records a broken mapping quarantined, seq order *)
  mapping_correct : bool array;
  mutable clinical_seen : int;  (** clinical appends so far (for [Eat_entry]) *)
  mutable replay_dropped : bool;  (** [Drop_replay] already fired *)
  admission : Adm.t;
      (** the shared tenant gate — owned by the harness (the client side),
          so it survives system rebuilds: a crash must not refill anyone's
          bucket *)
  tenant_quota : (int * int) array;  (** current (capacity, refill/s) per tenant *)
  trace : (string -> unit) option;
}

let site_name i = Printf.sprintf "site-%d" i
let tenant_name i = Printf.sprintf "tenant-%d" i
let class_name i = Printf.sprintf "class-%d" i

(* (capacity, refill/s, weight) of each tenant's budget class at setup —
   one class per tenant, in Schedule.n_tenants order. *)
let initial_classes = [| (60, 25, 1); (80, 30, 2); (40, 15, 1) |]

(* The Set_budget_class preset palette (name, capacity, refill/s,
   weight), kept in step with Schedule.n_class_presets: "zero" is the
   class that can never admit, so its sheds must say so (no retry
   hint). *)
let class_presets =
  [| ("generous", 120, 60, 2);
     ("standard", 60, 25, 1);
     ("tight", 12, 5, 1);
     ("zero", 0, 0, 1);
  |]

let rows_class ~cap ~rate ~weight =
  Adm.class_config ~weight ~rows:(Adm.quota ~refill_per_s:rate ~capacity:cap ()) ()

let make_admission () =
  let adm =
    Adm.create ~default_class:(class_name 0) ~now:0
      (List.mapi
         (fun i (cap, rate, weight) -> (class_name i, rows_class ~cap ~rate ~weight))
         (Array.to_list initial_classes))
  in
  Array.iteri
    (fun i _ -> Adm.assign adm ~tenant:(tenant_name i) (class_name i))
    initial_classes;
  adm

let event h fmt =
  Printf.ksprintf
    (fun line ->
      h.report.events <- line :: h.report.events;
      match h.trace with Some f -> f line | None -> ())
    fmt

let violate invariant fmt = Printf.ksprintf (fun d -> raise (Violation (invariant, d))) fmt

(* ---------- small helpers ---------- *)

let audit_store h = Hdb.Control_center.audit_store (Sys_.control h.sys)
let store_entries sys = Hdb.Audit_store.to_list (Hdb.Control_center.audit_store (Sys_.control sys))
let transit sys = Audit_mgmt.Federation.transit_quarantine (Sys_.federation sys)
let q_items sys = List.sort compare (Q.items (transit sys))

let rule_key r = List.sort compare (Prima_core.Rule.to_assoc r)
let rule_keys rules = List.sort compare (List.map rule_key rules)
let policy_keys p = rule_keys (Prima_core.Policy.rules p)
let policy_sequence p = List.map rule_key (Prima_core.Policy.rules p)

(* [a] a sub-multiset of [b]; both sorted. *)
let rec sorted_multiset_leq a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c = 0 then sorted_multiset_leq xs ys
    else if c > 0 then sorted_multiset_leq a ys
    else false

let rec has_dup = function
  | a :: (b :: _ as tl) -> a = b || has_dup tl
  | _ -> false

let same_entries a b =
  List.length a = List.length b && List.for_all2 Hdb.Audit_schema.equal a b

(* Every entry the harness appends anywhere is restamped off one global
   clock, so times stay strictly increasing in append order across the
   clinical stream, the remotes, raw batches and workflow plans alike —
   the property that makes the model's stable time sort reproduce the
   fault-free heap merge. *)
let stamp h (e : Hdb.Audit_schema.entry) =
  h.next_time <- h.next_time + 1;
  { e with Hdb.Audit_schema.time = h.next_time }

let take_pool h n =
  let avail = Array.length h.pool - h.next_entry in
  let n = min n avail in
  let es = Array.to_list (Array.sub h.pool h.next_entry n) in
  h.next_entry <- h.next_entry + n;
  h.report.appended <- h.report.appended + n;
  List.map (stamp h) es

(* Every fresh clinical append goes to the system and the model in one
   call, so the [Eat_entry] defect has one switch to throw: it swallows the
   entry on the system side only. *)
let append_clinical h es =
  let store = audit_store h in
  List.iter
    (fun e ->
      h.clinical_seen <- h.clinical_seen + 1;
      let eaten =
        match h.defect with Some (Eat_entry k) -> h.clinical_seen = k | _ -> false
      in
      if not eaten then Hdb.Audit_store.append store e)
    es;
  Model.append_clinical h.model es

let sync_q_floor h =
  let q = transit h.sys in
  Option.iter Durable.Log.sync (Q.log q);
  h.q_floor <- List.sort compare (Q.items q)

(* The demo table the enforcement-path budget checks query. *)
let enforcement_rows = 40

let setup_enforcement sys =
  let control = Sys_.control sys in
  ignore
    (Hdb.Control_center.admin_exec control
       "CREATE TABLE chaos_patients (id INT, name TEXT)");
  for i = 1 to enforcement_rows do
    ignore
      (Hdb.Control_center.admin_exec control
         (Printf.sprintf "INSERT INTO chaos_patients VALUES (%d, 'p%d')" i i))
  done

(* Re-apply the operator-visible configuration a rebuilt system must keep:
   the group-commit toggle, any overridden completeness threshold, the
   auto-checkpoint policy (the rebuilt logs start without one), and the
   client-owned admission controller — tenant buckets and counters ride
   across the rebuild untouched. *)
let reapply_config h sys =
  Sys_.set_group_commit sys h.group_commit;
  Option.iter (Sys_.set_completeness_threshold sys) h.threshold;
  if h.auto_checkpoint then Sys_.set_auto_checkpoint sys true;
  Audit_mgmt.Federation.set_admission (Sys_.federation sys) (Some h.admission)

(* ---------- the foreign raw dialect ---------- *)

(* The remotes' legacy export: renamed columns, GRANTED/DENIED op tokens,
   BTG status tokens, and "RN" as the local synonym for nurse.  The correct
   mapping normalises all of it; the broken one has lost the role alias,
   so every record is missing [authorized] and must quarantine. *)
let dialect_aliases =
  [ ("ts", Vocabulary.Audit_attrs.time);
    ("op_code", Vocabulary.Audit_attrs.op);
    ("actor", Vocabulary.Audit_attrs.user);
    ("category", Vocabulary.Audit_attrs.data);
    ("reason", Vocabulary.Audit_attrs.purpose);
    ("role", Vocabulary.Audit_attrs.authorized);
    ("mode", Vocabulary.Audit_attrs.status);
  ]

let dialect_synonyms = [ ((Vocabulary.Audit_attrs.authorized, "rn"), "nurse") ]

let correct_mapping () =
  Audit_mgmt.Mapping.create ~column_aliases:dialect_aliases
    ~value_synonyms:dialect_synonyms ()

let broken_mapping () =
  Audit_mgmt.Mapping.create
    ~column_aliases:(List.remove_assoc "role" dialect_aliases)
    ~value_synonyms:dialect_synonyms ()

let raw_of_entry (e : Hdb.Audit_schema.entry) =
  [ ("ts", string_of_int e.Hdb.Audit_schema.time);
    ("op_code",
     match e.Hdb.Audit_schema.op with
     | Hdb.Audit_schema.Allow -> "GRANTED"
     | Hdb.Audit_schema.Disallow -> "DENIED");
    ("actor", e.Hdb.Audit_schema.user);
    ("category", e.Hdb.Audit_schema.data);
    ("reason", e.Hdb.Audit_schema.purpose);
    ("role",
     if String.equal e.Hdb.Audit_schema.authorized "nurse" then "RN"
     else e.Hdb.Audit_schema.authorized);
    ("mode",
     match e.Hdb.Audit_schema.status with
     | Hdb.Audit_schema.Regular -> "regular"
     | Hdb.Audit_schema.Exception_based -> "BTG");
  ]

(* The last [n] elements of [xs]. *)
let last_n xs n =
  let len = List.length xs in
  List.filteri (fun i _ -> i >= len - n) xs

(* After a raw batch lands, the site's WAL is synced (batch interfaces
   acknowledge durably), so the whole remote stream known to the model is
   on stable media: raise the model's floor to match. *)
let sync_site_floor h i =
  Site.sync_wal (Audit_mgmt.Fault.site h.faults.(i));
  Model.set_remote_synced h.model i (Model.remote_length h.model i)

(* ---------- vocabulary edits (invariant 8) ---------- *)

(* Each edit grows one fresh leaf under a data category that the documented
   policy covers, so an access using the new leaf is covered — the edit
   moves real coverage numbers, giving the cache-coherence check (and the
   [Stale_vocab] defect) teeth. *)
let vocab_edit_targets =
  [| ("routine", "treatment", "nurse");
     ("sensitive", "diagnosis", "doctor");
     ("imaging", "diagnosis", "radiologist");
     ("demographic", "registration", "receptionist");
  |]

(* An identically re-grown vocabulary, from scratch: fresh base, fresh
   stamp, stone-cold caches.  Coverage under this value is the
   "from-scratch recompute" the live readings are compared against. *)
let rebuild_vocab h =
  List.fold_left
    (fun v (parent, leaf) ->
      Vocabulary.Vocab.with_leaf v ~attr:Vocabulary.Audit_attrs.data ~parent ~value:leaf)
    (Vocabulary.Samples.hospital ()) h.edits

(* Invariant 8: the system's live coverage readings — computed against its
   current vocabulary, whose grounding caches have been warmed across
   stamps, edits and crashes — must equal a from-scratch recompute over
   the same two policies under an identically rebuilt vocabulary.  Any
   divergence means a cache served an answer from a dead stamp. *)
let check_cache_coherence h =
  let prima = Sys_.prima h.sys in
  let live = Prima_core.Prima.coverage prima in
  let fresh = rebuild_vocab h in
  let attrs = Vocabulary.Audit_attrs.pattern in
  let p_x = Prima_core.Prima.policy_store prima in
  let p_y = Prima_core.Prima.audit_policy prima in
  let check name (l : Prima_core.Coverage.stats) bag =
    let f = Prima_core.Coverage.aligned ~bag fresh ~attrs ~p_x ~p_y in
    if l.Prima_core.Coverage.overlap <> f.Prima_core.Coverage.overlap
       || l.Prima_core.Coverage.denominator <> f.Prima_core.Coverage.denominator
    then
      violate "cache-coherence"
        "%s coverage reads %d/%d live but %d/%d from scratch (stale grounding cache?)"
        name l.Prima_core.Coverage.overlap l.Prima_core.Coverage.denominator
        f.Prima_core.Coverage.overlap f.Prima_core.Coverage.denominator
  in
  check "set" live.Prima_core.Prima.set_semantics false;
  check "bag" live.Prima_core.Prima.bag_semantics true

let run_vocab_edit h pick =
  let parent, purpose, role =
    vocab_edit_targets.(pick mod Array.length vocab_edit_targets)
  in
  let leaf = Printf.sprintf "chaos-%s-%d" parent h.report.vocab_edits in
  let vocab' =
    Vocabulary.Vocab.with_leaf (Model.vocab h.model) ~attr:Vocabulary.Audit_attrs.data
      ~parent ~value:leaf
  in
  h.edits <- h.edits @ [ (parent, leaf) ];
  h.report.vocab_edits <- h.report.vocab_edits + 1;
  (* the [Stale_vocab] defect: the model and the workload adopt the edit,
     the system never hears of it *)
  (match h.defect with
  | Some Stale_vocab -> ()
  | _ -> Sys_.set_vocab h.sys vocab');
  Model.set_vocab h.model vocab';
  (* one access under the new leaf, with a purpose/role pair the documented
     policy covers: the edit changes real coverage, not just the tree *)
  let e =
    stamp h
      (Hdb.Audit_schema.entry ~time:0 ~op:Hdb.Audit_schema.Allow ~user:(role ^ "-01")
         ~data:leaf ~purpose ~authorized:role ~status:Hdb.Audit_schema.Regular)
  in
  append_clinical h [ e ];
  h.report.appended <- h.report.appended + 1;
  check_cache_coherence h;
  (* the fresh stamp itself is a process-global counter — don't log it, or
     event logs stop being deterministic across runs in one process *)
  Printf.sprintf "leaf %s under %s (edit %d)" leaf parent h.report.vocab_edits

(* ---------- purpose workflows (invariant 9) ---------- *)

let n_templates = List.length Workload.Purpose.templates

let run_workflow h pick twist =
  let template = List.nth Workload.Purpose.templates (pick mod n_templates) in
  let inst =
    Workload.Purpose.instantiate h.wf_rng h.wconfig ?twist ~start_time:0 template
  in
  let entries = List.map (stamp h) inst.Workload.Purpose.entries in
  (* invariant 9: the conformance checker classifies the instance exactly
     as generated — untwisted plans conform, twisted ones never do *)
  let plausible = Workload.Purpose.conforms (Workload.Purpose.steps_of_entries entries) in
  (match (plausible, twist) with
  | false, None ->
    violate "purpose-plausibility" "untwisted %s instance fails prefix conformance"
      template.Workload.Purpose.name
  | true, Some tw ->
    violate "purpose-plausibility"
      "%s instance twisted by %s still conforms to a template"
      template.Workload.Purpose.name
      (Workload.Purpose.twist_to_string tw)
  | _ -> ());
  append_clinical h entries;
  let n = List.length entries in
  h.report.appended <- h.report.appended + n;
  h.report.workflows <- h.report.workflows + 1;
  if twist <> None then h.report.twisted_workflows <- h.report.twisted_workflows + 1;
  Printf.sprintf "%s: %d step(s), %s" template.Workload.Purpose.name n
    (match twist with
    | None -> "plausible"
    | Some tw -> "twisted (" ^ Workload.Purpose.twist_to_string tw ^ ")")

(* ---------- the raw federation path (mapping coherence) ---------- *)

let run_raw_append h i n =
  let es = take_pool h n in
  if es = [] then "pool dry"
  else begin
    let site = Audit_mgmt.Fault.site h.faults.(i) in
    let before = Site.length site in
    let s = Site.ingest_raw_batch site (List.map raw_of_entry es) in
    let n' = List.length es in
    if s.Site.duplicates <> 0 then
      violate "mapping-coherence" "fresh raw batch at site %d counted %d duplicate(s)" i
        s.Site.duplicates;
    let outcome =
      if h.mapping_correct.(i) then begin
        if s.Site.ingested <> n' || s.Site.quarantined <> 0 then
          violate "mapping-coherence"
            "correct mapping at site %d ingested %d/%d, quarantined %d" i s.Site.ingested
            n' s.Site.quarantined;
        (* round-trip: the mapped entries equal the originals, in order *)
        let got = last_n (Site.entries site) (Site.length site - before) in
        if not (same_entries got es) then
          violate "mapping-coherence" "raw round-trip at site %d altered the records" i;
        Model.append_remote h.model i es;
        h.report.raw_ingested <- h.report.raw_ingested + n';
        Printf.sprintf "%d raw record(s) mapped" n'
      end
      else begin
        if s.Site.ingested <> 0 || s.Site.quarantined <> n' then
          violate "mapping-coherence"
            "broken mapping at site %d ingested %d, quarantined %d/%d" i s.Site.ingested
            s.Site.quarantined n';
        h.pending.(i) <- h.pending.(i) @ es;
        h.report.raw_quarantined <- h.report.raw_quarantined + n';
        Printf.sprintf "%d raw record(s) quarantined (broken mapping)" n'
      end
    in
    sync_site_floor h i;
    outcome
  end

let run_set_mapping h i correct =
  let site = Audit_mgmt.Fault.site h.faults.(i) in
  if correct then begin
    Site.set_mapping site (correct_mapping ());
    h.mapping_correct.(i) <- true;
    let pending = h.pending.(i) in
    let np = List.length pending in
    let before = Site.length site in
    let s = Site.reprocess_quarantined site in
    if s.Site.ingested <> np || s.Site.quarantined <> 0 then
      violate "mapping-coherence"
        "reprocess at site %d under the fixed mapping ingested %d/%d, %d still quarantined"
        i s.Site.ingested np s.Site.quarantined;
    (* reprocessing walks the quarantine in seq order: the re-ingested
       records are the backlog, byte for byte, in arrival order *)
    let got = last_n (Site.entries site) (Site.length site - before) in
    if not (same_entries got pending) then
      violate "mapping-coherence" "reprocess at site %d reordered or altered the backlog" i;
    Model.append_remote h.model i pending;
    h.pending.(i) <- [];
    h.report.reprocessed <- h.report.reprocessed + np;
    sync_site_floor h i;
    Printf.sprintf "correct mapping, reprocessed %d" np
  end
  else begin
    Site.set_mapping site (broken_mapping ());
    h.mapping_correct.(i) <- false;
    "broken mapping installed"
  end

(* ---------- invariant checks ---------- *)

(* The reasons a reading must carry, from the harness's own sources rather
   than from System: the health accounting (stranding sites, the
   quarantine total), the central recovery reports, each member site's
   replay state, the archive's shard catalogue, and the budget oracle's
   stats when a governed extraction degrades ([truncated]).  No chaos
   action changes a codec, so no CRC-valid record ever stops decoding; no
   chaos epoch is admitted, so none browns out. *)
let expected_reasons h ?truncated (health : H.t) =
  let central log (r : Durable.Recovery.t) =
    match r.Durable.Recovery.verdict with
    | Durable.Recovery.Tamper_detected { offset } -> [ C.Tampered { log; offset } ]
    | _ when Durable.Recovery.dropped_tail r -> [ C.Wal_tail_lost log ]
    | _ -> []
  in
  List.filter_map
    (fun (s : H.site_health) ->
      if s.H.skipped_entries = 0 then None
      else Some (C.Site_dark { site = s.H.site; lag = s.H.skipped_entries }))
    health.H.sites
  @ (if health.H.quarantined > 0 then [ C.Quarantined health.H.quarantined ] else [])
  @ (match Sys_.recovery h.sys with
    | None -> []
    | Some r -> central "audit" r.Sys_.audit @ central "quarantine" r.Sys_.quarantine)
  @ List.filter_map
      (fun s -> if Site.durably_degraded s then Some (C.Wal_tail_lost (Site.name s)) else None)
      (Audit_mgmt.Federation.sites (Sys_.federation h.sys))
  @ List.filter_map
      (fun (site, (_, bad)) ->
        if bad = 0 then None else Some (C.Shard_degraded { site; shards = bad }))
      (Audit_mgmt.Shard_store.tally h.archive)
  @ Option.to_list (Option.map (fun stats -> C.Budget_truncated stats) truncated)

(* One qualifier against that expectation: [Exact] exactly when nothing
   is expected, otherwise a lower bound naming exactly the expected
   reasons — never none. *)
let check_evidence h invariant ?truncated health what qualifier =
  let sorted = List.sort compare in
  let expected = expected_reasons h ?truncated health in
  let got = C.reasons qualifier in
  if (qualifier = C.Exact) <> (expected = []) || sorted got <> sorted expected then
    let show = Fmt.str "%a" Fmt.(list ~sep:(any "; ") C.pp_reason) in
    violate invariant "%s reads %s [%s], but the injected faults give [%s]" what
      (if qualifier = C.Exact then "Exact" else "Lower_bound")
      (show got) (show expected)

let check_readings h invariant (qc : Sys_.qualified_coverage) =
  check_evidence h invariant qc.Sys_.health "set coverage" qc.Sys_.set_semantics.C.qualifier;
  check_evidence h invariant qc.Sys_.health "bag coverage" qc.Sys_.bag_semantics.C.qualifier

(* Consolidation-time checks: accounting, exactly-once, coverage bounds,
   the lower-bound labelling discipline (invariants 1-3), and cache
   coherence against a from-scratch vocabulary (invariant 8). *)
let check_consolidate h =
  h.report.consolidations <- h.report.consolidations + 1;
  let qc = Sys_.coverage_qualified h.sys in
  let health = qc.Sys_.health in
  (* invariant 2: every input record is accounted for exactly once *)
  if health.H.delivered + health.H.quarantined + health.H.skipped_entries <> health.H.total
  then
    violate "quarantine-exactly-once" "accounting broken: %d + %d + %d <> %d"
      health.H.delivered health.H.quarantined health.H.skipped_entries health.H.total;
  let keys = List.map (fun (it : Q.item) -> (it.site, it.seq)) (Q.items (transit h.sys)) in
  if has_dup (List.sort compare keys) then
    violate "quarantine-exactly-once" "duplicate (site, seq) in transit quarantine";
  (* the model mirrors the store exactly *)
  if policy_keys (Prima_core.Prima.policy_store (Sys_.prima h.sys)) <> policy_keys (Model.p_ps h.model)
  then violate "coverage-bound" "policy store diverged from the model mirror";
  (* invariant 1 (partial-trail side): delivered entries, as ingested into
     P_AL, are a sub-multiset of the model's fault-free trail *)
  let sys_rules = policy_keys (Prima_core.Prima.audit_policy (Sys_.prima h.sys)) in
  let model_rules = policy_keys (Model.trail_policy h.model) in
  if not (sorted_multiset_leq sys_rules model_rules) then
    violate "no-loss" "consolidated window is not a sub-multiset of the model trail";
  (* invariant 3: coverage bounds + label discipline *)
  let mset, mbag = Model.coverage h.model in
  let check_sem name (s : Prima_core.Coverage.qualified) (m : Prima_core.Coverage.stats) =
    let st = s.Prima_core.Coverage.stats in
    if st.overlap > m.overlap then
      violate "coverage-bound" "%s overlap %d exceeds model's exact %d" name st.overlap
        m.overlap;
    if st.denominator > m.denominator then
      violate "coverage-bound" "%s denominator %d exceeds model's exact %d" name
        st.denominator m.denominator
  in
  check_sem "set" qc.Sys_.set_semantics mset;
  check_sem "bag" qc.Sys_.bag_semantics mbag;
  check_readings h "lower-bound-label" qc;
  (* invariant 8: the live readings (vocab caches warmed across edits and
     crashes) against a from-scratch recompute over the same window *)
  check_cache_coherence h;
  (* consolidation mutated the quarantine: make its state the synced floor *)
  sync_q_floor h;
  health

(* Refinement-time checks: whatever the system accepts from a faulty,
   possibly budget-degraded window must be a subset of what the fault-free
   ungoverned model epoch accepts; the model then mirrors the install. *)
let check_refine h =
  let limits = Sys_.query_limits h.sys in
  match Sys_.refine h.sys with
  | Error reason ->
    h.report.refines_rejected <- h.report.refines_rejected + 1;
    sync_q_floor h;
    Printf.sprintf "rejected (%s)" reason
  | Ok report ->
    h.report.refines_ok <- h.report.refines_ok + 1;
    (* the budget oracle: the same governed extraction, re-run over the
       window the epoch saw *)
    let truncated =
      Option.bind limits (fun limits ->
          let prima = Sys_.prima h.sys in
          let { Prima_core.Refinement.backend; keep_prohibitions; _ } =
            Prima_core.Prima.refinement_config prima
          in
          let g =
            Prima_core.Extract_patterns.run_governed ~backend ~limits
              (Prima_core.Filter.run ~keep_prohibitions (Prima_core.Prima.audit_policy prima))
          in
          if g.Prima_core.Data_analysis.degraded then Some g.Prima_core.Data_analysis.stats
          else None)
    in
    if truncated <> None then h.report.degraded_epochs <- h.report.degraded_epochs + 1;
    let model_epoch = Model.epoch h.model in
    let accepted = report.Prima_core.Refinement.accepted in
    if
      not
        (sorted_multiset_leq (rule_keys accepted)
           (rule_keys model_epoch.Prima_core.Refinement.accepted))
    then
      violate "coverage-bound"
        "refine accepted %d pattern(s) the fault-free model epoch would not"
        (List.length accepted);
    Option.iter
      (fun health ->
        check_evidence h "lower-bound-label" ?truncated health "epoch"
          report.Prima_core.Refinement.qualifier)
      (Sys_.last_health h.sys);
    Model.install h.model accepted;
    sync_q_floor h;
    Printf.sprintf "accepted %d pattern(s)%s" (List.length accepted)
      (if truncated <> None then " [degraded extraction]" else "")

(* ---------- crash + recovery (invariants 1, 2, 4) ---------- *)

(* The durable log behind [what], or a violation of [invariant]. *)
let durable_log invariant what = function
  | Some l -> l
  | None -> violate invariant "%s lost its durable log" what

(* The central pair's four devices: the audit WAL and snapshot, then the
   transit quarantine's.  [invariant] names the violation a missing audit
   log counts against. *)
let central_devices h invariant =
  let audit = durable_log invariant "audit store" (Hdb.Audit_store.log (audit_store h)) in
  let q =
    durable_log "quarantine-exactly-once" "transit quarantine" (Q.log (transit h.sys))
  in
  Durable.Log.(wal_device audit, snapshot_device audit, wal_device q, snapshot_device q)

(* Power cut: [point] hits the audit WAL; the other devices take a clean
   loss of their unsynced tails (all four lose power together). *)
let power_cut (awal, asnap, qwal, qsnap) point =
  Durable.Device.crash awal ~point;
  List.iter
    (fun d -> Durable.Device.crash d ~point:Durable.Device.Clean_loss)
    [ asnap; qwal; qsnap ]

(* A system recovered from the central devices, keeping the live policy
   store and vocabulary. *)
let rebuild h (awal, asnap, qwal, qsnap) =
  let storage =
    {
      Sys_.audit_log = Durable.Log.of_devices ~wal:awal ~snapshot:asnap;
      quarantine_log = Durable.Log.of_devices ~wal:qwal ~snapshot:qsnap;
    }
  in
  let p_ps = Prima_core.Prima.policy_store (Sys_.prima h.sys) in
  Sys_.create ~storage ~vocab:(Model.vocab h.model) ~p_ps ()

(* Invariants 1 and 7: a recovered store holds no more entries than the
   model's [stream], is a prefix of it, and is not shorter than its durable
   [floor] unless the crash point was the lying-fsync [Truncated_sync].
   [site] names a remote's store (invariant 7), else it is the clinical one;
   [store] names it in the prefix message.  Returns the recovered length. *)
let check_prefix ?site ?(store = "recovered store") ~floor ~point got stream =
  let invariant, who =
    match site with
    | None -> ("no-loss", "")
    | Some name -> ("site-local-recovery", "site " ^ name ^ " ")
  in
  let clinical = site = None in
  let k = List.length got and n = List.length stream in
  if k > n then
    violate invariant "%srecovered %d entries but only %d %s" who k n
      (if clinical then "were ever appended" else "were ingested");
  if point <> Durable.Device.Truncated_sync && k < floor then
    violate invariant "%srecovered %d entries, below %s durable floor of %d (point %s)" who k
      (if clinical then "the" else "its")
      floor
      (Durable.Device.crash_point_to_string point);
  if not (same_entries got (List.filteri (fun i _ -> i < k) stream)) then
    violate invariant "%s%s is not a prefix of %s" who store
      (if clinical then "the appended entries" else "its stream");
  k

(* Resume on a rebuilt system: re-wire the fault plane, the archive, the
   operator config and the enforcement table, and make it the live one. *)
let resume h sys =
  Array.iter (fun f -> Sys_.add_faulty_site sys f) h.faults;
  Sys_.attach_archive sys h.archive;
  reapply_config h sys;
  setup_enforcement sys;
  h.sys <- sys

(* The client replays the clinical entries past the [k] recovered ones
   (at-least-once delivery), unless [drop] forgets to; the recovered prefix
   sits on stable storage and the replayed tail is the new unsynced region.
   Returns how many entries were replayed. *)
let replay_lost ?(drop = false) h k =
  let lost = List.filteri (fun i _ -> i >= k) (Model.clinical h.model) in
  if not drop then List.iter (Hdb.Audit_store.append (audit_store h)) lost;
  Model.set_synced h.model k;
  if drop then 0 else List.length lost

let crash_and_recover h point =
  h.report.crashes <- h.report.crashes + 1;
  let devices = central_devices h "no-loss" in
  power_cut devices point;
  (* invariant 4: recovery is idempotent — run it twice over the same
     devices and demand identical state with nothing newly dropped *)
  let sys_a = rebuild h devices in
  (* invariant 6 (zero false positives): crash damage, however ugly, lands
     in the unsynced tail — it must read as a torn tail, never tampering *)
  let tampered sys =
    List.exists (function C.Tampered _ -> true | _ -> false) (Sys_.standing_reasons sys)
  in
  if tampered sys_a then
    violate "tamper-evidence" "crash point %s misclassified as tampering"
      (Durable.Device.crash_point_to_string point);
  let entries_a = store_entries sys_a in
  let qitems_a = q_items sys_a in
  let sys_b = rebuild h devices in
  if tampered sys_b then
    violate "tamper-evidence" "second recovery after crash point %s reports tampering"
      (Durable.Device.crash_point_to_string point);
  let entries_b = store_entries sys_b in
  let qitems_b = q_items sys_b in
  if not (same_entries entries_a entries_b) then
    violate "recovery-idempotent" "second recovery produced a different store";
  if qitems_a <> qitems_b then
    violate "recovery-idempotent" "second recovery produced a different quarantine";
  (match Sys_.recovery sys_b with
  | None -> violate "recovery-idempotent" "rebuilt system reports no recovery"
  | Some r ->
    if Durable.Recovery.dropped_tail r.Sys_.audit
       || Durable.Recovery.dropped_tail r.Sys_.quarantine
    then violate "recovery-idempotent" "second recovery still dropping WAL bytes");
  let model_len = Model.clinical_length h.model in
  let k =
    check_prefix ~floor:(Model.synced h.model) ~point entries_b (Model.clinical h.model)
  in
  (* invariant 2: the quarantine WAL is synced after every mutation batch,
     so the quarantine comes back exactly as last synced *)
  if qitems_b <> h.q_floor then
    violate "quarantine-exactly-once"
      "recovered quarantine (%d items) differs from the synced floor (%d items)"
      (List.length qitems_b) (List.length h.q_floor);
  resume h sys_b;
  let drop = h.defect = Some Drop_replay && not h.replay_dropped && k < model_len in
  if drop then h.replay_dropped <- true;
  Printf.sprintf "recovered %d/%d, replayed %d" k model_len (replay_lost ~drop h k)

(* ---------- site-local crash + recovery (invariant 7) ---------- *)

(* Power-cut remote [i]'s own WAL at the drawn point, rebuild the site
   from its op log alone, reseat it into the federation (keeping breaker
   history, fault schedule and schema mapping), and have the feed replay
   the lost suffix.  The clinical pair and every other site are untouched:
   the blast radius of a site-local crash is exactly one site. *)
let site_crash_and_recover h i point =
  h.report.site_crashes <- h.report.site_crashes + 1;
  let fault = h.faults.(i) in
  let old_site = Audit_mgmt.Fault.site fault in
  let name = Site.name old_site in
  let mapping = Site.mapping old_site in
  let log =
    match Site.wal old_site with
    | Some l -> l
    | None -> violate "site-local-recovery" "site %s lost its durable WAL" name
  in
  let wal = Durable.Log.wal_device log in
  let snap = Durable.Log.snapshot_device log in
  (* the drawn point hits the site's WAL; its snapshot loses power with a
     clean loss of the unsynced tail *)
  Durable.Device.crash wal ~point;
  Durable.Device.crash snap ~point:Durable.Device.Clean_loss;
  let open_once () =
    Site.open_durable ~mapping ~name (Durable.Log.of_devices ~wal ~snapshot:snap)
  in
  (* the first open truncates any torn tail and reseals, so it is the one
     that carries the true verdict — it becomes the live site; the second
     open is the idempotency probe over the now-clean devices *)
  let site', report, undecodable = open_once () in
  (* crash damage lands in the unsynced tail: never tampering, and the
     op codec did not change under us *)
  if Durable.Recovery.tampered report then
    violate "site-local-recovery" "site crash point %s misclassified as tampering"
      (Durable.Device.crash_point_to_string point);
  if undecodable > 0 then
    violate "site-local-recovery" "%d recovered site op(s) no longer decode" undecodable;
  let entries = Site.entries site' in
  (* recovery is idempotent: a second open over the same devices yields
     the same site and drops nothing new *)
  let site_b, report_b, _ = open_once () in
  if Durable.Recovery.tampered report_b then
    violate "site-local-recovery" "second site recovery after point %s reports tampering"
      (Durable.Device.crash_point_to_string point);
  if Durable.Recovery.dropped_tail report_b then
    violate "site-local-recovery" "second site recovery still dropping WAL bytes";
  if not (same_entries entries (Site.entries site_b)) then
    violate "site-local-recovery" "second site recovery produced a different store";
  (* prefix + durable floor, against the model's fault-free remote stream *)
  let model_all = Model.remote h.model i in
  let model_len = Model.remote_length h.model i in
  let k =
    check_prefix ~site:name ~floor:(Model.remote_synced h.model i) ~point entries model_all
  in
  h.report.site_recovered <- h.report.site_recovered + k;
  (* a site with auto-compaction enabled keeps it across the restart:
     every 1024 records, where [Sys_.set_auto_checkpoint] gave it 64, and
     without the group-commit toggle [reapply_config] restores after a
     central rebuild *)
  if h.auto_checkpoint then
    Option.iter
      (fun log ->
        Durable.Log.set_auto_checkpoint log (Some (Durable.Log.checkpoint_every ~records:1024 ())))
      (Site.wal site');
  (* swap the rebuilt site back in; the member keeps its breaker history
     and fault schedule (Fault.reseat inside) *)
  Sys_.reseat_site h.sys name site';
  let lost = List.filteri (fun j _ -> j >= k) model_all in
  (* a lossy recovery leaves the site durably degraded: until the feed
     replays, every coverage reading must be a Lower_bound carrying
     [Wal_tail_lost] for this site *)
  if Site.durably_degraded site' then begin
    check_readings h "site-local-recovery" (Sys_.coverage_qualified h.sys);
    sync_q_floor h
  end;
  (* the feed replays the lost suffix (at-least-once) and declares the
     site whole again; the recovered prefix sits on stable storage *)
  Site.ingest_entries site' lost;
  Site.acknowledge_replay site';
  if Site.durably_degraded site' then
    violate "site-local-recovery" "site %s still degraded after the replay" name;
  (* A lying-fsync crash can rewind even synced quarantine ops,
     resurrecting already-reprocessed records or un-quarantining pending
     ones.  The recovered site is ground truth: re-derive the raw-path
     bookkeeping from its quarantine, and drop any resurrected record the
     model already holds (its entry was replayed above) so a later
     reprocess cannot double-ingest it. *)
  let site_q = Site.quarantine site' in
  let items =
    List.sort
      (fun (a : Q.item) (b : Q.item) -> compare a.seq b.seq)
      (Q.site_items site_q ~site:name)
  in
  h.pending.(i) <-
    List.filter_map
      (fun (it : Q.item) ->
        let e = Audit_mgmt.Mapping.apply (correct_mapping ()) it.raw in
        if List.exists (Hdb.Audit_schema.equal e) model_all then begin
          Q.remove site_q ~site:name ~seq:it.seq;
          None
        end
        else Some e)
      items;
  Model.set_remote_synced h.model i k;
  h.report.site_replayed <- h.report.site_replayed + List.length lost;
  Printf.sprintf "recovered %d/%d, replayed %d" k model_len (List.length lost)

(* ---------- tampering fault (invariant 6) ---------- *)

(* Flip one bit of a previously accepted — synced, stable — audit WAL
   record, then demand the whole detection story: a read-only verification
   reports [Tamper_detected] at the exact frame offset, a second pass says
   the same, the mutated record is never surfaced as accepted data, and a
   full rebuild over the tampered devices comes up tampered + durably
   degraded with lower-bound coverage.  Unlike the crash path the system
   is rebuilt only once: the first open's reopen truncates the log at the
   divergence and reseals, consuming the evidence a second open would
   need.  The client then replays the amputated suffix, exactly as after
   a lossy crash. *)
let tamper_and_verify h pick bit_pick =
  let ((awal, asnap, _, _) as devices) = central_devices h "tamper-evidence" in
  let image = Durable.Device.contents awal in
  let data_spans =
    List.filter
      (fun (_, _, k) -> match k with Durable.Frame.Data -> true | Durable.Frame.Seal -> false)
      (Durable.Wal.frame_spans image)
  in
  if data_spans = [] then "no-op (no accepted record on stable media)"
  else begin
    let idx = pick mod List.length data_spans in
    let off, len, _ = List.nth data_spans idx in
    let bit_total = bit_pick mod (len * 8) in
    let pos = off + (bit_total / 8) in
    let bit = bit_total mod 8 in
    Durable.Device.corrupt_stable awal ~pos ~bit;
    h.report.tampers <- h.report.tampers + 1;
    (* detection, at the exact frame offset, idempotently (read-only) *)
    let r1 = Durable.Recovery.run ~wal:awal ~snapshot:asnap () in
    let r2 = Durable.Recovery.run ~wal:awal ~snapshot:asnap () in
    (match r1.Durable.Recovery.verdict with
    | Durable.Recovery.Tamper_detected { offset } when offset = off -> ()
    | Durable.Recovery.Tamper_detected { offset } ->
      violate "tamper-evidence" "tamper at frame offset %d reported at offset %d" off offset
    | v ->
      violate "tamper-evidence"
        "flipped bit %d of stable byte %d (frame at %d) but the verdict is %s" bit pos off
        (Durable.Recovery.verdict_to_string v));
    if r2.Durable.Recovery.verdict <> r1.Durable.Recovery.verdict then
      violate "tamper-evidence" "verifying the tampered log twice changed the verdict";
    (* the scan must stop dead at the mutated frame: the tampered record is
       never part of the verified prefix *)
    if r1.Durable.Recovery.wal_records <> idx then
      violate "tamper-evidence"
        "tampered WAL record %d, but the scan verified %d record(s) — mutated data %s" idx
        r1.Durable.Recovery.wal_records
        (if r1.Durable.Recovery.wal_records > idx then "read back as accepted"
         else "took earlier records with it");
    (* power-cut all four devices and rebuild once over the tampered media *)
    power_cut devices Durable.Device.Clean_loss;
    let sys' = rebuild h devices in
    if not (List.mem (C.Tampered { log = "audit"; offset = off }) (Sys_.standing_reasons sys'))
    then violate "tamper-evidence" "rebuilt system does not report the tampering at %d" off;
    (* invariant 1 still holds: the amputated store is a (shorter) prefix,
       though the amputation may cut below the durable floor *)
    let k =
      check_prefix ~store:"post-tamper recovered store" ~floor:0
        ~point:Durable.Device.Clean_loss (store_entries sys') (Model.clinical h.model)
    in
    (* resume on the rebuilt system; the next coverage reading must be a
       Lower_bound naming the tamper even over a nominally complete
       window *)
    resume h sys';
    check_readings h "tamper-evidence" (Sys_.coverage_qualified h.sys);
    sync_q_floor h;
    let replayed = replay_lost h k in
    h.report.tampers_detected <- h.report.tampers_detected + 1;
    Printf.sprintf "bit %d of byte %d (record %d): detected at offset %d, replayed %d" bit
      pos idx off replayed
  end

(* ---------- enforcement-path budget regimes ---------- *)

let run_enforce h kind =
  let control = Sys_.control h.sys in
  let run ?budget () =
    Hdb.Control_center.query ?budget control ~user:"chaos" ~role:"nurse"
      ~purpose:"treatment" "SELECT * FROM chaos_patients"
  in
  let full_rows label = function
    | Ok (o : Hdb.Enforcement.outcome) ->
      let n = List.length o.Hdb.Enforcement.result.Relational.Executor.rows in
      if n <> enforcement_rows then
        violate "enforce-strict" "%s returned %d/%d rows (silent truncation?)" label n
          enforcement_rows
    | Error e -> violate "enforce-strict" "%s denied: %s" label (Hdb.Enforcement.error_to_string e)
  in
  match kind with
  | Schedule.E_plain ->
    Sys_.set_query_limits h.sys None;
    full_rows "plain query" (run ());
    "full result set"
  | Schedule.E_tight_rows -> (
    Sys_.set_query_limits h.sys (Some (Relational.Budget.limits ~rows:3 ()));
    let out = try `Res (run ()) with Relational.Errors.Budget_exceeded _ -> `Trip in
    Sys_.set_query_limits h.sys None;
    match out with
    | `Trip ->
      h.report.enforce_trips <- h.report.enforce_trips + 1;
      "typed Budget_exceeded"
    | `Res (Ok (o : Hdb.Enforcement.outcome)) ->
      violate "enforce-strict" "over-quota query returned %d rows instead of raising"
        (List.length o.Hdb.Enforcement.result.Relational.Executor.rows)
    | `Res (Error e) ->
      violate "enforce-strict" "over-quota query denied instead of budget trip: %s"
        (Hdb.Enforcement.error_to_string e))
  | Schedule.E_wall w -> (
    (* drive the wall deadline off the federation's simulated clock: every
       budget tick advances it 1ms, so the deadline trips deterministically *)
    let fed = Sys_.federation h.sys in
    let now () =
      Audit_mgmt.Federation.advance_clock fed 1;
      float_of_int (Audit_mgmt.Federation.clock fed)
    in
    let budget = Relational.Budget.create ~now (Relational.Budget.limits ~wall_ms:w ()) in
    match run ~budget () with
    | res ->
      full_rows "wall-governed query" res;
      "completed under wall deadline"
    | exception Relational.Errors.Budget_exceeded (Relational.Errors.Time, _) ->
      h.report.enforce_trips <- h.report.enforce_trips + 1;
      "wall deadline tripped (typed)"
    | exception Relational.Errors.Budget_exceeded (r, _) ->
      violate "enforce-strict" "wall-governed query tripped on %s, not Time"
        (match r with
        | Relational.Errors.Rows -> "Rows"
        | Relational.Errors.Tuples -> "Tuples"
        | Relational.Errors.Time -> "Time"))
  | Schedule.E_cancel n -> (
    let budget = Relational.Budget.create ~cancel_at:n Relational.Budget.unlimited in
    match run ~budget () with
    | res ->
      full_rows "cancellable query" res;
      "completed before cancellation"
    | exception Relational.Errors.Cancelled _ ->
      h.report.enforce_trips <- h.report.enforce_trips + 1;
      "cancelled (typed)")

(* ---------- overload storms (invariant 10) ---------- *)

(* Probe load every non-storm tenant offers per storm. *)
let probe_count = 4

(* Server drain capacity for a storm of [rate]: large enough that the
   probes can never be overload-shed — the storm class's worst-case
   round-1 service is its carried DRR deficit (at most one quantum
   round, 16) plus a fresh round's quantum (weight <= 2 x quantum 8),
   then the 8 probes — yet small enough that a big storm (rate beyond
   ~43) exhausts it and must shed by overload, not just by its own
   bucket. *)
let storm_serve_limit ~rate = 40 + (rate / 4)

let tenant_index h name =
  let nt = Array.length h.tenant_quota in
  let rec go i =
    if i >= nt then violate "harness-error" "decision for unknown tenant %s" name
    else if String.equal (tenant_name i) name then i
    else go (i + 1)
  in
  go 0

(* One overload burst through the admission gate's weighted-fair
   arbiter: [rate] single-row mutations from the storm tenant race
   [probe_count] probes from every other tenant, all at the same clock
   reading.  The pure model predicts every tenant's admitted count from
   its token bucket alone — the check that a hot tenant cannot starve
   the others.  The admitted requests then ingest for real (system and
   model alike), and two gated batches pin the all-or-nothing shed
   discipline on the site itself. *)
let run_overload_storm h ti rate =
  let nt = Array.length h.tenant_quota in
  let storm = ti mod nt in
  let adm = h.admission in
  (* the gate must see the freshest overload signals *)
  Audit_mgmt.Federation.refresh_pressure (Sys_.federation h.sys);
  let level = Adm.pressure_level adm in
  let now = Audit_mgmt.Federation.clock (Sys_.federation h.sys) in
  let one_row = Adm.cost ~rows:1 () in
  let principal t =
    Adm.principal ~tenant:(tenant_name t)
      ~session:(Printf.sprintf "storm-%d" (h.report.storms + 1))
      ~request:(Printf.sprintf "step-%d" now) ()
  in
  let burst t n = List.init n (fun _ -> (principal t, one_row, Adm.Mutation)) in
  let reqs =
    burst storm rate
    @ List.concat
        (List.init nt (fun t -> if t = storm then [] else burst t probe_count))
  in
  let serve_limit = storm_serve_limit ~rate in
  let decisions = Adm.drain adm ~now ~serve_limit reqs in
  let admitted = Array.make nt 0 in
  let shed = Array.make nt 0 in
  List.iter
    (fun ((p : Adm.principal), d) ->
      let t = tenant_index h p.Adm.tenant in
      match d with
      | Adm.Admitted _ -> admitted.(t) <- admitted.(t) + 1
      | Adm.Brownout _ ->
        violate "admission-fairness" "mutation from %s browned out — mutations are whole or shed"
          p.Adm.tenant
      | Adm.Rejected r ->
        shed.(t) <- shed.(t) + 1;
        let cap, refill = h.tenant_quota.(t) in
        (match (r.Adm.r_resource, r.Adm.retry_after_ms) with
        (* overload and pressure-only sheds: affordable at face value, so
           the earliest retry is the very next tick *)
        | Relational.Errors.Time, Some 1 -> ()
        | Relational.Errors.Time, hint ->
          violate "admission-fairness" "overload shed for %s hints %s instead of 1ms"
            p.Adm.tenant
            (match hint with None -> "never" | Some ms -> Printf.sprintf "%dms" ms)
        (* bucket sheds: retryable exactly when the bucket can ever refill *)
        | _, Some ms when ms >= 1 && cap >= 1 && refill > 0 -> ()
        | _, None when cap < 1 || refill <= 0 -> ()
        | _, Some ms ->
          violate "admission-fairness"
            "shed for %s (capacity %d, %d/s) carries hint %dms for a bucket that never refills"
            p.Adm.tenant cap refill ms
        | _, None ->
          violate "admission-fairness"
            "shed for %s (capacity %d, %d/s) claims it is never retryable" p.Adm.tenant cap
            refill))
    decisions;
  (* non-storm tenants first: their token-bucket floor must hold exactly *)
  let probes_admitted = ref 0 in
  for t = 0 to nt - 1 do
    if t <> storm then begin
      let expect =
        Model.admit_requests h.model ~tenant:t ~now ~level ~count:probe_count ()
      in
      probes_admitted := !probes_admitted + admitted.(t);
      if admitted.(t) <> expect then
        violate "admission-fairness"
          "storm on %s (x%d): probe %s admitted %d/%d, its token-bucket floor says %d (level %d)"
          (tenant_name storm) rate (tenant_name t) admitted.(t) probe_count expect level
    end
  done;
  (* the storm tenant itself: bucket + leftover drain capacity *)
  let serve_cap = max 0 (serve_limit - !probes_admitted) in
  let expect_storm =
    Model.admit_requests h.model ~tenant:storm ~now ~level ~serve_cap ~count:rate ()
  in
  if admitted.(storm) <> expect_storm then
    violate "admission-fairness"
      "storm tenant %s admitted %d/%d, bucket-and-capacity prediction says %d (level %d)"
      (tenant_name storm) admitted.(storm) rate expect_storm level;
  (* admitted traffic ingests for real — same entries on both sides *)
  let total_admitted = Array.fold_left ( + ) 0 admitted in
  let site_i = storm mod Array.length h.faults in
  let site = Audit_mgmt.Fault.site h.faults.(site_i) in
  let es = take_pool h total_admitted in
  if es <> [] then begin
    Site.ingest_entries site es;
    Model.append_remote h.model site_i es
  end;
  (* a batch larger than the whole bucket can never be admitted: it must
     shed whole — no partial mutation, no retry hint — through the gated
     batch interface itself *)
  let cap, _ = h.tenant_quota.(storm) in
  let p_storm = principal storm in
  let oversized = List.init (cap + 1) (fun _ -> h.pool.(0)) in
  let len0 = Site.length site in
  let seq0 = Site.next_seq site in
  let q0 = Site.quarantined_count site in
  (match Site.ingest_entries_admitted adm site ~now ~principal:p_storm oversized with
  | Ok n ->
    violate "admission-fairness" "oversized batch (%d rows over capacity %d) admitted %d"
      (cap + 1) cap n
  | Error r ->
    if r.Adm.retry_after_ms <> None then
      violate "admission-fairness" "oversized batch got a retry hint but can never fit";
    if Site.length site <> len0 || Site.next_seq site <> seq0
       || Site.quarantined_count site <> q0
    then
      violate "admission-fairness"
        "shed batch left a partial mutation behind (%d->%d entries, seq %d->%d, %d->%d quarantined)"
        len0 (Site.length site) seq0 (Site.next_seq site) q0 (Site.quarantined_count site));
  (* and a single-entry gated batch agrees with the mirror about whether
     anything is left in the storm tenant's bucket *)
  let expect_one = Model.admit_requests h.model ~tenant:storm ~now ~level ~count:1 () in
  (match take_pool h 1 with
  | [] -> ()
  | es1 -> (
    match Site.ingest_entries_admitted adm site ~now ~principal:p_storm es1 with
    | Ok _ ->
      if expect_one = 0 then
        violate "admission-fairness" "gated batch admitted from a drained bucket";
      Model.append_remote h.model site_i es1
    | Error _ ->
      if expect_one = 1 then
        violate "admission-fairness"
          "gated single-entry batch shed though the mirror holds %d token(s)"
          (Model.tenant_tokens h.model ~tenant:storm ~now)));
  h.report.storms <- h.report.storms + 1;
  h.report.storm_admitted <- h.report.storm_admitted + total_admitted;
  h.report.storm_shed <- h.report.storm_shed + Array.fold_left ( + ) 0 shed;
  let probe_sum =
    String.concat "+"
      (List.filter_map
         (fun t -> if t = storm then None else Some (string_of_int admitted.(t)))
         (List.init nt (fun t -> t)))
  in
  Printf.sprintf "%s x%d level %d: admitted %d (probes %s), shed %d" (tenant_name storm)
    rate level total_admitted probe_sum
    (Array.fold_left ( + ) 0 shed)

let run_set_budget_class h ti pick =
  let nt = Array.length h.tenant_quota in
  let t = ti mod nt in
  let pname, cap, rate, weight = class_presets.(pick mod Array.length class_presets) in
  Adm.set_class h.admission (class_name t) (rows_class ~cap ~rate ~weight);
  h.tenant_quota.(t) <- (cap, rate);
  Model.set_tenant_quota h.model ~tenant:t ~capacity:cap ~refill_per_s:rate;
  Printf.sprintf "%s -> %s (%d rows, %d/s, weight %d)" (tenant_name t) pname cap rate weight

(* ---------- the step interpreter ---------- *)

let run_action h step action =
  let outcome =
    match action with
    | Schedule.Append_clinical n ->
      let es = take_pool h n in
      if es = [] then "pool dry"
      else begin
        append_clinical h es;
        Printf.sprintf "%d entries" (List.length es)
      end
    | Schedule.Append_remote (i, n) ->
      let es = take_pool h n in
      if es = [] then "pool dry"
      else begin
        Site.ingest_entries (Audit_mgmt.Fault.site h.faults.(i)) es;
        Model.append_remote h.model i es;
        Printf.sprintf "%d entries" (List.length es)
      end
    | Schedule.Append_remote_raw (i, n) -> run_raw_append h i n
    | Schedule.Set_mapping (i, correct) -> run_set_mapping h i correct
    | Schedule.Append_workflow (pick, twist) -> run_workflow h pick twist
    | Schedule.Vocab_edit pick -> run_vocab_edit h pick
    | Schedule.Sync_durable ->
      Sys_.sync_durable h.sys;
      Model.mark_all_synced h.model;
      sync_q_floor h;
      Printf.sprintf "floor now %d" (Model.synced h.model)
    | Schedule.Checkpoint_durable ->
      Sys_.checkpoint_durable h.sys;
      Model.mark_all_synced h.model;
      sync_q_floor h;
      "compacted"
    | Schedule.Set_auto_checkpoint on ->
      Sys_.set_auto_checkpoint h.sys on;
      h.auto_checkpoint <- on;
      if on then "auto-compaction on" else "auto-compaction off"
    | Schedule.Crash point -> crash_and_recover h point
    | Schedule.Site_crash (i, point) -> site_crash_and_recover h i point
    | Schedule.Consolidate ->
      let health = check_consolidate h in
      Printf.sprintf "completeness %.3f (%d/%d, %d quarantined)" health.H.completeness
        health.H.delivered health.H.total health.H.quarantined
    | Schedule.Outage i ->
      Audit_mgmt.Fault.take_down h.faults.(i);
      "down"
    | Schedule.Heal i ->
      Audit_mgmt.Fault.heal h.faults.(i);
      "healed"
    | Schedule.Advance_clock ms ->
      Sys_.advance_clock h.sys ms;
      Printf.sprintf "clock %dms" (Audit_mgmt.Federation.clock (Sys_.federation h.sys))
    | Schedule.Refine ticks ->
      Sys_.set_query_limits h.sys
        (Option.map (fun t -> Relational.Budget.limits ~ticks:t ()) ticks);
      let msg = check_refine h in
      Sys_.set_query_limits h.sys None;
      msg
    | Schedule.Refine_race n ->
      (* consolidation fixes the window; [n] fresh accesses then land
         behind its back before the epoch runs — refinement must stay
         sound for the window it actually saw *)
      ignore (check_consolidate h);
      let es = take_pool h n in
      append_clinical h es;
      let msg = check_refine h in
      Printf.sprintf "%s (%d raced in)" msg (List.length es)
    | Schedule.Set_threshold pct ->
      let v = float_of_int pct /. 100.0 in
      Sys_.set_completeness_threshold h.sys v;
      h.threshold <- Some v;
      if Sys_.completeness_threshold h.sys <> v then
        violate "harness-error" "completeness threshold did not take";
      Printf.sprintf "completeness threshold %.2f" v
    | Schedule.Enforce kind -> run_enforce h kind
    | Schedule.Set_group_commit on ->
      Sys_.set_group_commit h.sys on;
      h.group_commit <- on;
      if on then "batching on" else "batching off"
    | Schedule.Tamper (pick, bit_pick) -> tamper_and_verify h pick bit_pick
    | Schedule.Overload_storm (ti, rate) -> run_overload_storm h ti rate
    | Schedule.Set_budget_class (ti, pick) -> run_set_budget_class h ti pick
  in
  event h "%4d  %-28s  %s" step (Schedule.to_string action) outcome

(* ---------- convergence epilogue (invariant 5) ---------- *)

let epilogue h =
  (* stop the faults for good: fix any still-broken schema mapping (which
     reprocesses its quarantined backlog), heal everything, and swap each
     wrapper for a genuinely fault-free one, so the remaining fetches are
     clean draws *)
  Array.iteri
    (fun i _ -> if not h.mapping_correct.(i) then ignore (run_set_mapping h i true))
    h.faults;
  Sys_.heal_all h.sys;
  let fed = Sys_.federation h.sys in
  Array.iteri
    (fun i f ->
      Audit_mgmt.Federation.set_fault fed (site_name i)
        (Some
           (Audit_mgmt.Fault.wrap ~config:Audit_mgmt.Fault.no_faults ~seed:(h.report.seed + i)
              (Audit_mgmt.Fault.site f))))
    h.faults;
  (* let every breaker cooldown elapse, then consolidate twice: the first
     pass closes half-open breakers, the second must see everything *)
  Sys_.advance_clock h.sys 120_000;
  ignore (check_consolidate h);
  let health = check_consolidate h in
  event h "      epilogue consolidation      completeness %.3f" health.H.completeness;
  if health.H.completeness < 1.0 then
    violate "convergence" "completeness %.3f after all faults healed" health.H.completeness;
  let sys_al = Prima_core.Prima.audit_policy (Sys_.prima h.sys) in
  let model_al = Model.trail_policy h.model in
  if policy_keys sys_al <> policy_keys model_al then
    violate "convergence" "fault-free consolidated trail differs from the model";
  (* as sequences too: P_AL's order drives Trend windows and the order of
     bag-semantics uncovered listings, so an entry appended out of place
     must not pass as the same multiset *)
  if policy_sequence sys_al <> policy_sequence model_al then
    violate "convergence" "fault-free consolidated trail is out of the model's order";
  (* exact coverage parity on the healed trail *)
  let check_parity () =
    let qc = Sys_.coverage_qualified h.sys in
    let mset, mbag = Model.coverage h.model in
    let same (s : Prima_core.Coverage.qualified) (m : Prima_core.Coverage.stats) =
      let st = s.Prima_core.Coverage.stats in
      st.overlap = m.overlap && st.denominator = m.denominator
    in
    if not (same qc.Sys_.set_semantics mset && same qc.Sys_.bag_semantics mbag) then
      violate "convergence" "coverage over the healed trail differs from the model";
    check_readings h "convergence" qc
  in
  check_parity ();
  (* final refinement parity: the system must accept exactly the fault-free
     model epoch's patterns, after which the mirrored stores still agree *)
  Sys_.set_query_limits h.sys None;
  let model_epoch = Model.epoch h.model in
  (match Sys_.refine h.sys with
  | Error reason -> violate "convergence" "final refine refused on a healed trail: %s" reason
  | Ok report ->
    h.report.refines_ok <- h.report.refines_ok + 1;
    let accepted = report.Prima_core.Refinement.accepted in
    if rule_keys accepted <> rule_keys model_epoch.Prima_core.Refinement.accepted then
      violate "convergence"
        "final refine accepted %d pattern(s), the fault-free model epoch %d"
        (List.length accepted)
        (List.length model_epoch.Prima_core.Refinement.accepted);
    Model.install h.model accepted;
    event h "      epilogue refine             accepted %d pattern(s)"
      (List.length accepted));
  check_parity ();
  (* invariant 6, clean side: the final durable trail verifies free of
     tampering — trivially so for a zero-tamper run, and equally after
     tampers, whose evidence was consumed when the log was truncated and
     resealed at rebuild *)
  let log =
    durable_log "tamper-evidence" "audit store" (Hdb.Audit_store.log (audit_store h))
  in
  let r =
    Durable.Recovery.run ~wal:(Durable.Log.wal_device log)
      ~snapshot:(Durable.Log.snapshot_device log) ()
  in
  if Durable.Recovery.tampered r then
    violate "tamper-evidence" "%d tamper(s) injected yet the final trail verifies as %s"
      h.report.tampers
      (Durable.Recovery.verdict_to_string r.Durable.Recovery.verdict)

(* ---------- entry points ---------- *)

(* Run an explicit action list — the replay/shrink entry point.  [pool] is
   the workload pool size (recorded in repros so a shrunk schedule draws
   from the same entry stream as the original run); [defect] arms one
   injected bug.  Deterministic in (seed, nsites, pool, defect, actions). *)
let run_actions ?(nsites = 2) ?defect ?trace ?pool ~seed ~actions () =
  let steps = List.length actions in
  let pool_size = match pool with Some n -> n | None -> (steps * 3) + 120 in
  (* the workload: one globally time-ordered stream of hospital accesses,
     split across the clinical DB and the remotes by the schedule *)
  let config =
    let base = Workload.Hospital.default_config ~seed:((seed * 31) + 7) () in
    { base with Workload.Hospital.total_accesses = pool_size }
  in
  let pool = Array.of_list (Workload.Generator.entries (Workload.Generator.generate config)) in
  let vocab = config.Workload.Hospital.vocab in
  let p_ps = Workload.Hospital.policy_store config in
  let storage =
    {
      Sys_.audit_log = Durable.Log.create ~seed:((seed * 13) + 1) ();
      quarantine_log = Durable.Log.create ~seed:((seed * 13) + 2) ();
    }
  in
  let sys = Sys_.create ~storage ~vocab ~p_ps () in
  setup_enforcement sys;
  let fault_config =
    {
      Audit_mgmt.Fault.p_unavailable = 0.1;
      p_timeout = 0.1;
      p_flaky = 0.15;
      p_corrupt = 0.08;
      latency = 5;
      timeout_cost = 40;
    }
  in
  (* every remote sits on its own durable op log, so a site-local crash
     recovers from the site's WAL instead of re-ingesting from source;
     each speaks the foreign dialect through the correct mapping until a
     Set_mapping action breaks it *)
  let faults =
    Array.init nsites (fun i ->
        let site =
          Site.create ~mapping:(correct_mapping ()) ~name:(site_name i) ()
        in
        Site.attach_wal site (Durable.Log.create ~seed:((seed * 13) + 10 + i) ());
        Audit_mgmt.Fault.wrap ~config:fault_config ~seed:((seed * 101) + i) site)
  in
  Array.iter (fun f -> Sys_.add_faulty_site sys f) faults;
  (* the durable consolidated archive: failed fetches degrade to stale
     shard reads instead of skipping the site outright *)
  let archive = Audit_mgmt.Shard_store.create ~seed:((seed * 13) + 5) () in
  Sys_.attach_archive sys archive;
  (* the multi-tenant admission gate, client-owned so it survives system
     rebuilds, and its pure token-bucket mirror in the model *)
  let admission = make_admission () in
  Audit_mgmt.Federation.set_admission (Sys_.federation sys) (Some admission);
  let model = Model.create ~vocab ~p_ps ~nsites in
  Model.set_tenant_classes model
    (List.map (fun (cap, rate, _) -> (cap, rate)) (Array.to_list initial_classes));
  let report =
    {
      seed;
      steps;
      actions_run = 0;
      appended = 0;
      crashes = 0;
      site_crashes = 0;
      site_recovered = 0;
      site_replayed = 0;
      consolidations = 0;
      refines_ok = 0;
      refines_rejected = 0;
      degraded_epochs = 0;
      enforce_trips = 0;
      tampers = 0;
      tampers_detected = 0;
      raw_ingested = 0;
      raw_quarantined = 0;
      reprocessed = 0;
      workflows = 0;
      twisted_workflows = 0;
      vocab_edits = 0;
      storms = 0;
      storm_admitted = 0;
      storm_shed = 0;
      events = [];
      violation = None;
    }
  in
  let h =
    {
      report;
      model;
      sys;
      archive;
      faults;
      wconfig = config;
      wf_rng = Splitmix.create ~seed:((seed * 41) + 9);
      pool;
      defect;
      next_entry = 0;
      next_time = 0;
      q_floor = [];
      group_commit = false;
      auto_checkpoint = false;
      threshold = None;
      edits = [];
      pending = Array.make nsites [];
      mapping_correct = Array.make nsites true;
      clinical_seen = 0;
      replay_dropped = false;
      admission;
      tenant_quota = Array.map (fun (cap, rate, _) -> (cap, rate)) initial_classes;
      trace;
    }
  in
  let guard step action f =
    try f () with
    | e ->
      let invariant, detail =
        match e with
        | Violation (invariant, detail) -> (invariant, detail)
        | e -> ("harness-error", Printexc.to_string e)
      in
      report.violation <- Some { step; action = Schedule.to_string action; invariant; detail }
  in
  (let rec loop step = function
     | [] -> ()
     | action :: rest ->
       guard step action (fun () ->
           run_action h step action;
           report.actions_run <- report.actions_run + 1);
       if report.violation = None then loop (step + 1) rest
   in
   loop 1 actions);
  if report.violation = None then
    guard (steps + 1) Schedule.Consolidate (fun () -> epilogue h);
  report.events <- List.rev report.events;
  report

let run ?(nsites = 2) ?defect ?trace ~seed ~steps () =
  let actions = Schedule.generate ~nsites ~seed ~steps () in
  run_actions ~nsites ?defect ?trace ~pool:((steps * 3) + 120) ~seed ~actions ()

(* ---------- reporting ---------- *)

let pp_violation ppf v =
  Fmt.pf ppf "step %d (%s): invariant %S violated — %s" v.step v.action v.invariant
    v.detail

let pp ppf (r : report) =
  Fmt.pf ppf
    "@[<v>seed %d: %d/%d steps, %d entries, %d crashes, %d site crashes (%d \
     recovered/%d replayed), %d consolidations, %d+%d refines (%d degraded), %d budget \
     trips, %d/%d tampers detected, %d raw (%d quarantined, %d reprocessed), %d \
     workflows (%d twisted), %d vocab edits, %d storms (%d admitted/%d shed) — %a@]"
    r.seed r.actions_run r.steps r.appended r.crashes r.site_crashes r.site_recovered
    r.site_replayed r.consolidations r.refines_ok r.refines_rejected r.degraded_epochs
    r.enforce_trips r.tampers_detected r.tampers r.raw_ingested r.raw_quarantined
    r.reprocessed r.workflows r.twisted_workflows r.vocab_edits r.storms r.storm_admitted
    r.storm_shed
    (fun ppf -> function
      | None -> Fmt.pf ppf "all invariants held"
      | Some v -> pp_violation ppf v)
    r.violation
