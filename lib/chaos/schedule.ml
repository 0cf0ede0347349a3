(* A composed fault schedule: one seeded stream of whole-system actions
   interleaving the normal PRIMA loop (appends, consolidation, refinement,
   enforcement queries) with every fault plane the stack owns — federation
   outages and clock advances, durable-device crash points, query-budget
   trips, schema-mapping swaps on the raw ingest path, mid-run vocabulary
   edits, auto-checkpoint toggles, and purpose-workflow plans with
   plan-implausible twists.  Generation is deterministic in the seed, so
   any run replays from its seed alone; individual actions round-trip
   through to_string/of_string, so a shrunk schedule also replays from its
   textual repro alone. *)

type enforce =
  | E_plain  (** ungoverned; must return the full result set *)
  | E_tight_rows  (** row quota below the table size: must raise, not truncate *)
  | E_wall of int  (** wall-clock deadline driven off the simulated clock *)
  | E_cancel of int  (** cooperative cancellation after [n] ticks *)

type action =
  | Append_clinical of int  (** next [n] workload accesses hit the clinical DB *)
  | Append_remote of int * int  (** (site index, n) accesses land at a remote *)
  | Append_remote_raw of int * int
      (** (site index, n): the same accesses arrive as foreign-dialect raw
          rows through the site's schema mapping — under a broken mapping
          they must quarantine, never drop *)
  | Set_mapping of int * bool
      (** (site index, correct?): swap remote [i]'s schema mapping mid-run;
          [true] also reprocesses what the previous mapping quarantined *)
  | Append_workflow of int * Workload.Purpose.twist option
      (** (template pick, twist): one multi-step clinical plan, faithful
          or twisted into a plan-implausible sequence *)
  | Vocab_edit of int
      (** grow a taxonomy leaf under the picked parent and adopt the
          re-stamped vocabulary mid-run *)
  | Sync_durable  (** fsync both WALs: everything so far becomes the floor *)
  | Checkpoint_durable  (** snapshot + truncate both logs *)
  | Set_auto_checkpoint of bool  (** toggle background WAL compaction *)
  | Crash of Durable.Device.crash_point
      (** power-cut the durable devices, recover, and resume on the
          rebuilt system *)
  | Site_crash of int * Durable.Device.crash_point
      (** power-cut remote [i]'s own WAL at the drawn point, recover the
          site locally from its op log, reseat it into the federation and
          replay the lost suffix *)
  | Consolidate  (** fault-aware consolidation + qualified coverage *)
  | Outage of int  (** force the persistent outage on remote [i] *)
  | Heal of int  (** clear every injected fault on remote [i] *)
  | Advance_clock of int  (** simulated ms: retries, breaker cooldowns *)
  | Refine of int option  (** one refinement cycle; [Some ticks] governs it *)
  | Refine_race of int
      (** consolidate, let [n] accesses land behind the window's back,
          then refine *)
  | Set_threshold of int  (** completeness threshold := [pct]/100 *)
  | Enforce of enforce  (** an enforcement query under a budget regime *)
  | Set_group_commit of bool  (** toggle WAL group-commit batching *)
  | Tamper of int * int
      (** flip bit [pick2 mod 8] of a previously accepted (stable) audit
          WAL record chosen by [pick1]; recovery must report
          [Tamper_detected], never a clean or torn verdict *)
  | Overload_storm of int * int
      (** (tenant index, rate): an overload burst — [rate] single-row
          mutation requests from the storm tenant race fixed probe loads
          from every other tenant through the admission gate's
          weighted-fair arbiter; non-storm tenants must keep exactly their
          token-bucket floor and every shed request must be all-or-nothing
          with an honest retry hint *)
  | Set_budget_class of int * int
      (** (tenant index, preset pick): reconfigure the storm tenant's
          budget class to one of the fixed presets mid-run — from generous
          down to a zero-capacity class that can never admit *)

let enforce_to_string = function
  | E_plain -> "enforce(plain)"
  | E_tight_rows -> "enforce(tight-rows)"
  | E_wall w -> Printf.sprintf "enforce(wall %dms)" w
  | E_cancel n -> Printf.sprintf "enforce(cancel@%d)" n

let to_string = function
  | Append_clinical n -> Printf.sprintf "append-clinical %d" n
  | Append_remote (i, n) -> Printf.sprintf "append-remote site-%d %d" i n
  | Append_remote_raw (i, n) -> Printf.sprintf "append-remote-raw site-%d %d" i n
  | Set_mapping (i, correct) ->
    Printf.sprintf "set-mapping site-%d %s" i (if correct then "correct" else "broken")
  | Append_workflow (pick, twist) ->
    Printf.sprintf "append-workflow template-%d %s" pick
      (match twist with
      | None -> "plausible"
      | Some tw -> Workload.Purpose.twist_to_string tw)
  | Vocab_edit pick -> Printf.sprintf "vocab-edit %d" pick
  | Sync_durable -> "sync-durable"
  | Checkpoint_durable -> "checkpoint-durable"
  | Set_auto_checkpoint b -> Printf.sprintf "auto-checkpoint %b" b
  | Crash p -> "crash " ^ Durable.Device.crash_point_to_string p
  | Site_crash (i, p) ->
    Printf.sprintf "site-crash site-%d %s" i (Durable.Device.crash_point_to_string p)
  | Consolidate -> "consolidate"
  | Outage i -> Printf.sprintf "outage site-%d" i
  | Heal i -> Printf.sprintf "heal site-%d" i
  | Advance_clock ms -> Printf.sprintf "advance-clock %dms" ms
  | Refine None -> "refine"
  | Refine (Some ticks) -> Printf.sprintf "refine(governed %d ticks)" ticks
  | Refine_race n -> Printf.sprintf "refine-race %d" n
  | Set_threshold pct -> Printf.sprintf "set-threshold %d" pct
  | Enforce e -> enforce_to_string e
  | Set_group_commit b -> Printf.sprintf "group-commit %b" b
  | Tamper (pick, bit) -> Printf.sprintf "tamper record-pick %d bit-pick %d" pick bit
  | Overload_storm (tenant, rate) -> Printf.sprintf "overload-storm tenant-%d %d" tenant rate
  | Set_budget_class (tenant, preset) ->
    Printf.sprintf "set-budget-class tenant-%d preset-%d" tenant preset

(* Parsing helpers for the exact shapes to_string emits. *)
let site_of s =
  if String.starts_with ~prefix:"site-" s then
    int_of_string_opt (String.sub s 5 (String.length s - 5))
  else None

let template_of s =
  if String.starts_with ~prefix:"template-" s then
    int_of_string_opt (String.sub s 9 (String.length s - 9))
  else None

let tenant_of s =
  if String.starts_with ~prefix:"tenant-" s then
    int_of_string_opt (String.sub s 7 (String.length s - 7))
  else None

let preset_of s =
  if String.starts_with ~prefix:"preset-" s then
    int_of_string_opt (String.sub s 7 (String.length s - 7))
  else None

let ms_of s =
  if String.length s > 2 && String.sub s (String.length s - 2) 2 = "ms" then
    int_of_string_opt (String.sub s 0 (String.length s - 2))
  else None

let bool_of = function
  | "true" -> Some true
  | "false" -> Some false
  | _ -> None

let nonneg = function
  | Some n when n >= 0 -> Some n
  | _ -> None

let of_string line : action option =
  let ( let* ) = Option.bind in
  match String.split_on_char ' ' (String.trim line) with
  | [ "append-clinical"; n ] ->
    let* n = nonneg (int_of_string_opt n) in
    Some (Append_clinical n)
  | [ "append-remote"; site; n ] ->
    let* i = site_of site in
    let* n = nonneg (int_of_string_opt n) in
    Some (Append_remote (i, n))
  | [ "append-remote-raw"; site; n ] ->
    let* i = site_of site in
    let* n = nonneg (int_of_string_opt n) in
    Some (Append_remote_raw (i, n))
  | [ "set-mapping"; site; style ] ->
    let* i = site_of site in
    (match style with
    | "correct" -> Some (Set_mapping (i, true))
    | "broken" -> Some (Set_mapping (i, false))
    | _ -> None)
  | [ "append-workflow"; template; style ] ->
    let* pick = template_of template in
    (match style with
    | "plausible" -> Some (Append_workflow (pick, None))
    | _ ->
      let* tw = Workload.Purpose.twist_of_string style in
      Some (Append_workflow (pick, Some tw)))
  | [ "vocab-edit"; pick ] ->
    let* pick = nonneg (int_of_string_opt pick) in
    Some (Vocab_edit pick)
  | [ "sync-durable" ] -> Some Sync_durable
  | [ "checkpoint-durable" ] -> Some Checkpoint_durable
  | [ "auto-checkpoint"; b ] ->
    let* b = bool_of b in
    Some (Set_auto_checkpoint b)
  | [ "crash"; point ] ->
    let* p = Durable.Device.crash_point_of_string point in
    Some (Crash p)
  | [ "site-crash"; site; point ] ->
    let* i = site_of site in
    let* p = Durable.Device.crash_point_of_string point in
    Some (Site_crash (i, p))
  | [ "consolidate" ] -> Some Consolidate
  | [ "outage"; site ] ->
    let* i = site_of site in
    Some (Outage i)
  | [ "heal"; site ] ->
    let* i = site_of site in
    Some (Heal i)
  | [ "advance-clock"; ms ] ->
    let* ms = nonneg (ms_of ms) in
    Some (Advance_clock ms)
  | [ "refine" ] -> Some (Refine None)
  | [ "refine(governed"; ticks; "ticks)" ] ->
    let* t = nonneg (int_of_string_opt ticks) in
    Some (Refine (Some t))
  | [ "refine-race"; n ] ->
    let* n = nonneg (int_of_string_opt n) in
    Some (Refine_race n)
  | [ "set-threshold"; pct ] ->
    let* pct = nonneg (int_of_string_opt pct) in
    Some (Set_threshold pct)
  | [ "enforce(plain)" ] -> Some (Enforce E_plain)
  | [ "enforce(tight-rows)" ] -> Some (Enforce E_tight_rows)
  | [ "enforce(wall"; ms ] when String.length ms > 3 && ms.[String.length ms - 1] = ')' ->
    let* w = nonneg (ms_of (String.sub ms 0 (String.length ms - 1))) in
    Some (Enforce (E_wall w))
  | [ cancel ] when String.starts_with ~prefix:"enforce(cancel@" cancel ->
    let body = String.sub cancel 15 (String.length cancel - 15) in
    if String.length body > 1 && body.[String.length body - 1] = ')' then
      let* n = nonneg (int_of_string_opt (String.sub body 0 (String.length body - 1))) in
      Some (Enforce (E_cancel n))
    else None
  | [ "group-commit"; b ] ->
    let* b = bool_of b in
    Some (Set_group_commit b)
  | [ "tamper"; "record-pick"; pick; "bit-pick"; bit ] ->
    let* pick = nonneg (int_of_string_opt pick) in
    let* bit = nonneg (int_of_string_opt bit) in
    Some (Tamper (pick, bit))
  | [ "overload-storm"; tenant; rate ] ->
    let* t = nonneg (tenant_of tenant) in
    let* r = nonneg (int_of_string_opt rate) in
    Some (Overload_storm (t, r))
  | [ "set-budget-class"; tenant; preset ] ->
    let* t = nonneg (tenant_of tenant) in
    let* p = nonneg (preset_of preset) in
    Some (Set_budget_class (t, p))
  | _ -> None

(* Crash points weighted towards the recoverable ones; [Truncated_sync] —
   the lying fsync — stays rare but present, it is the only point allowed
   to eat below the durable floor. *)
let gen_crash_point rng =
  Splitmix.pick_weighted rng
    Durable.Device.
      [
        (Clean_loss, 3);
        (Torn_tail, 3);
        (Partial_header, 2);
        (Bit_flip, 2);
        (Truncated_sync, 1);
      ]

exception Invalid_weights of string

type weights = {
  w_append_clinical : int;
  w_append_remote : int;
  w_append_remote_raw : int;
  w_set_mapping : int;
  w_append_workflow : int;
  w_vocab_edit : int;
  w_sync : int;
  w_checkpoint : int;
  w_auto_checkpoint : int;
  w_crash : int;
  w_site_crash : int;
  w_consolidate : int;
  w_outage : int;
  w_heal : int;
  w_advance : int;
  w_refine : int;
  w_refine_race : int;
  w_threshold : int;
  w_enforce : int;
  w_group_commit : int;
  w_tamper : int;
  w_overload_storm : int;
  w_set_budget_class : int;
}

let default_weights =
  {
    w_append_clinical = 6;
    w_append_remote = 4;
    w_append_remote_raw = 3;
    w_set_mapping = 2;
    w_append_workflow = 4;
    w_vocab_edit = 1;
    w_sync = 3;
    w_checkpoint = 1;
    w_auto_checkpoint = 1;
    w_crash = 2;
    w_site_crash = 2;
    w_consolidate = 5;
    w_outage = 2;
    w_heal = 2;
    w_advance = 3;
    w_refine = 2;
    w_refine_race = 2;
    w_threshold = 1;
    w_enforce = 3;
    w_group_commit = 1;
    w_tamper = 2;
    w_overload_storm = 2;
    w_set_budget_class = 1;
  }

let weight_table w =
  [
    (`Append_clinical, w.w_append_clinical);
    (`Append_remote, w.w_append_remote);
    (`Append_remote_raw, w.w_append_remote_raw);
    (`Set_mapping, w.w_set_mapping);
    (`Append_workflow, w.w_append_workflow);
    (`Vocab_edit, w.w_vocab_edit);
    (`Sync, w.w_sync);
    (`Checkpoint, w.w_checkpoint);
    (`Auto_checkpoint, w.w_auto_checkpoint);
    (`Crash, w.w_crash);
    (`Site_crash, w.w_site_crash);
    (`Consolidate, w.w_consolidate);
    (`Outage, w.w_outage);
    (`Heal, w.w_heal);
    (`Advance, w.w_advance);
    (`Refine, w.w_refine);
    (`Refine_race, w.w_refine_race);
    (`Threshold, w.w_threshold);
    (`Enforce, w.w_enforce);
    (`Group_commit, w.w_group_commit);
    (`Tamper, w.w_tamper);
    (`Overload_storm, w.w_overload_storm);
    (`Set_budget_class, w.w_set_budget_class);
  ]

(* Reject bad tables before any draw: a negative weight or an all-zero
   table is a configuration error, not an empty run.  Zero entries in an
   otherwise positive table are fine — Splitmix.pick_weighted's walk never
   lands on them. *)
let validate_weights table =
  List.iter
    (fun (_, w) ->
      if w < 0 then raise (Invalid_weights (Printf.sprintf "negative weight %d" w)))
    table;
  if List.fold_left (fun acc (_, w) -> acc + w) 0 table <= 0 then
    raise (Invalid_weights "all weights are zero")

let n_templates = List.length Workload.Purpose.templates

(* The fixed multi-tenant cast: three tenants, each with its own budget
   class, reconfigurable through a small preset palette.  The harness
   names them tenant-0..2 / class-0..2. *)
let n_tenants = 3
let n_class_presets = 4

let gen_action rng ~nsites ~table =
  match Splitmix.pick_weighted rng table with
  | `Append_clinical -> Append_clinical (1 + Splitmix.int rng 4)
  | `Append_remote -> Append_remote (Splitmix.int rng nsites, 1 + Splitmix.int rng 4)
  | `Append_remote_raw -> Append_remote_raw (Splitmix.int rng nsites, 1 + Splitmix.int rng 4)
  (* Mostly swaps back to the correct mapping, so quarantined raw rows get
     reprocessed often enough to exercise the exactly-once ledger. *)
  | `Set_mapping -> Set_mapping (Splitmix.int rng nsites, Splitmix.bool rng ~probability:0.7)
  | `Append_workflow ->
    let twist =
      if Splitmix.bool rng ~probability:0.35 then
        Some (Splitmix.pick rng Workload.Purpose.all_twists)
      else None
    in
    Append_workflow (Splitmix.int rng n_templates, twist)
  | `Vocab_edit -> Vocab_edit (Splitmix.int rng 1_000_000)
  | `Sync -> Sync_durable
  | `Checkpoint -> Checkpoint_durable
  | `Auto_checkpoint -> Set_auto_checkpoint (Splitmix.bool rng ~probability:0.5)
  | `Crash -> Crash (gen_crash_point rng)
  | `Site_crash -> Site_crash (Splitmix.int rng nsites, gen_crash_point rng)
  | `Consolidate -> Consolidate
  | `Outage -> Outage (Splitmix.int rng nsites)
  | `Heal -> Heal (Splitmix.int rng nsites)
  | `Advance -> Advance_clock (50 + Splitmix.int rng 450)
  | `Refine ->
    Refine
      (if Splitmix.bool rng ~probability:0.4 then
         Some (30 + Splitmix.int rng 600)
       else None)
  | `Refine_race -> Refine_race (1 + Splitmix.int rng 3)
  | `Threshold -> Set_threshold (50 + Splitmix.int rng 50)
  | `Enforce ->
    Enforce
      (Splitmix.pick rng
         [
           E_plain;
           E_tight_rows;
           E_wall (5 + Splitmix.int rng 40);
           E_cancel (1 + Splitmix.int rng 60);
         ])
  | `Group_commit -> Set_group_commit (Splitmix.bool rng ~probability:0.5)
  (* The picks are drawn at generation time (kept deterministic in the
     seed); the harness maps them onto whatever accepted records exist
     when the action fires. *)
  | `Tamper -> Tamper (Splitmix.int rng 1_000_000, Splitmix.int rng 1_000_000)
  (* Rates up to 10:1 against the fixed 4-request probe loads: small
     storms drain only the storm tenant's own bucket, large ones also
     exhaust the server's drain capacity and must overload-shed. *)
  | `Overload_storm -> Overload_storm (Splitmix.int rng n_tenants, 10 + Splitmix.int rng 80)
  | `Set_budget_class ->
    Set_budget_class (Splitmix.int rng n_tenants, Splitmix.int rng n_class_presets)

let generate ?(weights = default_weights) ~nsites ~seed ~steps () =
  let table = weight_table weights in
  validate_weights table;
  let rng = Splitmix.create ~seed in
  let rec go acc n =
    if n = 0 then List.rev acc else go (gen_action rng ~nsites ~table :: acc) (n - 1)
  in
  go [] steps
