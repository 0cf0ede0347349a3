(* ddmin over chaos schedules.

   The oracle is the harness itself: a candidate action list "fails" when
   [Harness.run_actions] over it — same seed, same site count, same
   workload pool, same armed defect — violates the same invariant the
   original run violated.  Any sublist of a valid schedule is itself valid
   (site indices are fixed at generation, pool exhaustion is a handled
   no-op), so candidates need no repair step; and because a run is a pure
   function of (seed, nsites, pool, defect, actions), the oracle's answers
   are stable and the whole minimization is deterministic.

   Shrinking proceeds in rounds to a fixpoint:

   1. ddmin chunk deletion — try dropping ever-smaller chunks (n/2 down to
      single actions) until no single deletion keeps the failure alive:
      the result is 1-minimal.
   2. clock collapsing — adjacent [Advance_clock] actions merge into one.
   3. parameter simplification — per surviving action, try canonical
      smaller parameters (counts to 1, picks and site indices to 0,
      governed refinement to plain, wall/cancel budgets to plain
      enforcement, crash points to clean-loss) and keep the first that
      still fails.
   4. site-count reduction — when no surviving action touches the higher
      site indices, re-run with fewer sites.

   Chunk deletion dominates the candidate budget; the passes polish the
   survivors so committed repros read as small, round numbers. *)

type repro = {
  seed : int;
  nsites : int;
  pool : int;
  defect : Harness.defect option;
  invariant : string;
  step : int;
  actions : Schedule.action list;
}

let replay r =
  Harness.run_actions ~nsites:r.nsites ?defect:r.defect ~pool:r.pool ~seed:r.seed
    ~actions:r.actions ()

let violation_of r actions =
  let report =
    Harness.run_actions ~nsites:r.nsites ?defect:r.defect ~pool:r.pool ~seed:r.seed
      ~actions ()
  in
  match report.Harness.violation with
  | Some v when String.equal v.Harness.invariant r.invariant -> Some v
  | _ -> None

let still_fails r = violation_of r r.actions <> None

let of_report ?defect ?(nsites = 2) ~actions (report : Harness.report) =
  match report.Harness.violation with
  | None -> None
  | Some v ->
    Some
      {
        seed = report.Harness.seed;
        nsites;
        pool = (report.Harness.steps * 3) + 120;
        defect;
        invariant = v.Harness.invariant;
        step = v.Harness.step;
        actions;
      }

type stats = {
  original : int;
  minimal : int;
  candidates : int;
  rounds : int;
}

(* ---------- pass 1: ddmin chunk deletion ---------- *)

let drop_range xs ~from ~len =
  List.filteri (fun i _ -> i < from || i >= from + len) xs

(* Delete chunks of [size], left to right, restarting the scan on every
   successful deletion (the classic ddmin complement step); halve the
   chunk size when a whole scan removes nothing.  Terminates with a list
   from which no single action can be deleted. *)
let ddmin ~oracle actions =
  let tried = ref 0 in
  let fails candidate =
    incr tried;
    oracle candidate
  in
  let rec at_size actions size =
    if size < 1 then actions
    else begin
      let rec scan actions from =
        if from >= List.length actions then None
        else begin
          let candidate =
            drop_range actions ~from ~len:(min size (List.length actions - from))
          in
          if candidate <> [] && fails candidate then Some candidate
          else scan actions (from + size)
        end
      in
      match scan actions 0 with
      | Some smaller -> at_size smaller (min size (List.length smaller))
      | None -> at_size actions (size / 2)
    end
  in
  let n = List.length actions in
  let result = at_size actions (max 1 (n / 2)) in
  (result, !tried)

(* ---------- pass 2: collapse adjacent clock advances ---------- *)

let collapse_clocks actions =
  let rec go = function
    | Schedule.Advance_clock a :: Schedule.Advance_clock b :: rest ->
      go (Schedule.Advance_clock (a + b) :: rest)
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go actions

(* ---------- pass 3: per-action parameter simplification ---------- *)

(* Candidate replacements, most aggressive first; the first that keeps the
   failure alive wins.  Only emit genuinely different actions. *)
let simpler (action : Schedule.action) : Schedule.action list =
  let clean = Durable.Device.Clean_loss in
  let all =
    match action with
    | Schedule.Append_clinical n -> [ Schedule.Append_clinical 1; Schedule.Append_clinical (n / 2) ]
    | Schedule.Append_remote (i, n) ->
      [ Schedule.Append_remote (0, 1); Schedule.Append_remote (i, 1);
        Schedule.Append_remote (0, n) ]
    | Schedule.Append_remote_raw (i, n) ->
      [ Schedule.Append_remote_raw (0, 1); Schedule.Append_remote_raw (i, 1);
        Schedule.Append_remote_raw (0, n) ]
    | Schedule.Set_mapping (_, c) -> [ Schedule.Set_mapping (0, c) ]
    | Schedule.Append_workflow (_, twist) -> [ Schedule.Append_workflow (0, twist) ]
    | Schedule.Vocab_edit _ -> [ Schedule.Vocab_edit 0 ]
    | Schedule.Crash _ -> [ Schedule.Crash clean ]
    | Schedule.Site_crash (i, point) ->
      [ Schedule.Site_crash (0, clean); Schedule.Site_crash (i, clean);
        Schedule.Site_crash (0, point) ]
    | Schedule.Outage _ -> [ Schedule.Outage 0 ]
    | Schedule.Heal _ -> [ Schedule.Heal 0 ]
    | Schedule.Advance_clock _ -> [ Schedule.Advance_clock 50 ]
    | Schedule.Refine (Some _) -> [ Schedule.Refine None ]
    | Schedule.Refine_race _ -> [ Schedule.Refine_race 1 ]
    | Schedule.Enforce (Schedule.E_wall _) | Schedule.Enforce (Schedule.E_cancel _) ->
      [ Schedule.Enforce Schedule.E_plain ]
    | Schedule.Tamper (pick, bit) ->
      [ Schedule.Tamper (0, 0); Schedule.Tamper (pick mod 8, bit mod 64) ]
    | Schedule.Overload_storm (t, rate) ->
      [ Schedule.Overload_storm (0, 10); Schedule.Overload_storm (t, 10);
        Schedule.Overload_storm (0, rate) ]
    | Schedule.Set_budget_class (_, preset) -> [ Schedule.Set_budget_class (0, preset) ]
    | Schedule.Set_auto_checkpoint _ | Schedule.Sync_durable | Schedule.Checkpoint_durable
    | Schedule.Consolidate | Schedule.Refine None | Schedule.Set_threshold _
    | Schedule.Enforce _ | Schedule.Set_group_commit _ ->
      []
  in
  List.filter (fun a -> a <> action) all

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

let simplify_params ~oracle actions =
  let tried = ref 0 in
  let fails candidate =
    incr tried;
    oracle candidate
  in
  let rec at actions n =
    if n >= List.length actions then actions
    else begin
      let current = List.nth actions n in
      let rec first = function
        | [] -> None
        | candidate_action :: rest ->
          let candidate = replace_nth actions n candidate_action in
          if fails candidate then Some candidate else first rest
      in
      match first (simpler current) with
      | Some better -> at better (n + 1)
      | None -> at actions (n + 1)
    end
  in
  (at actions 0, !tried)

(* ---------- pass 4: site-count reduction ---------- *)

let max_site_index actions =
  List.fold_left
    (fun acc a ->
      match a with
      | Schedule.Append_remote (i, _) | Schedule.Append_remote_raw (i, _)
      | Schedule.Set_mapping (i, _) | Schedule.Site_crash (i, _) | Schedule.Outage i
      | Schedule.Heal i ->
        max acc i
      | _ -> acc)
    (-1) actions

(* ---------- the driver ---------- *)

(* Passes run to a fixpoint, but never more than this many rounds. *)
let max_rounds = 10

let shrink r =
  let original = List.length r.actions in
  let candidates = ref 0 in
  let current = ref r in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_rounds do
    incr rounds;
    changed := false;
    let r0 = !current in
    let oracle actions = violation_of r0 actions <> None in
    (* 1. chunk deletion to 1-minimality *)
    let smaller, n1 = ddmin ~oracle r0.actions in
    candidates := !candidates + n1;
    if List.length smaller < List.length r0.actions then changed := true;
    (* 2. merge adjacent clock advances (validated as one candidate) *)
    let smaller =
      let merged = collapse_clocks smaller in
      if merged <> smaller then begin
        incr candidates;
        if oracle merged then begin
          changed := true;
          merged
        end
        else smaller
      end
      else smaller
    in
    (* 3. per-action parameter simplification *)
    let simpler_actions, n3 = simplify_params ~oracle smaller in
    candidates := !candidates + n3;
    if simpler_actions <> smaller then changed := true;
    current := { r0 with actions = simpler_actions };
    (* 4. drop sites no surviving action touches *)
    let needed = max 1 (max_site_index simpler_actions + 1) in
    if needed < !current.nsites then begin
      incr candidates;
      let candidate = { !current with nsites = needed } in
      if still_fails candidate then begin
        changed := true;
        current := candidate
      end
    end
  done;
  (* pin the violation step of the minimal schedule into the repro *)
  let final =
    match violation_of !current !current.actions with
    | Some v -> { !current with step = v.Harness.step }
    | None -> !current (* unreachable: every accepted candidate fails *)
  in
  ( final,
    {
      original;
      minimal = List.length final.actions;
      candidates = !candidates;
      rounds = !rounds;
    } )

(* ---------- serialization ---------- *)

let header = "prima-chaos-repro v1"

let to_string r =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  Printf.bprintf b "seed %d\n" r.seed;
  Printf.bprintf b "nsites %d\n" r.nsites;
  Printf.bprintf b "pool %d\n" r.pool;
  Printf.bprintf b "defect %s\n"
    (match r.defect with None -> "none" | Some d -> Harness.defect_to_string d);
  Printf.bprintf b "invariant %s\n" r.invariant;
  Printf.bprintf b "step %d\n" r.step;
  Printf.bprintf b "actions %d\n" (List.length r.actions);
  List.iter
    (fun a ->
      Buffer.add_string b (Schedule.to_string a);
      Buffer.add_char b '\n')
    r.actions;
  Buffer.contents b

let of_string s =
  let lines =
    String.split_on_char '\n' s |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let field name = function
    | line :: rest ->
      let prefix = name ^ " " in
      let plen = String.length prefix in
      if String.length line > plen && String.sub line 0 plen = prefix then
        Ok (String.sub line plen (String.length line - plen), rest)
      else Error (Printf.sprintf "expected %S line, got %S" name line)
    | [] -> Error (Printf.sprintf "missing %S line" name)
  in
  let int_field name lines =
    match field name lines with
    | Error _ as e -> e
    | Ok (v, rest) -> (
      match int_of_string_opt v with
      | Some n -> Ok (n, rest)
      | None -> Error (Printf.sprintf "%s: %S is not an integer" name v))
  in
  let ( let* ) = Result.bind in
  match lines with
  | h :: rest when h = header ->
    let* seed, rest = int_field "seed" rest in
    let* nsites, rest = int_field "nsites" rest in
    let* pool, rest = int_field "pool" rest in
    let* defect_s, rest = field "defect" rest in
    let* defect =
      if defect_s = "none" then Ok None
      else
        match Harness.defect_of_string defect_s with
        | Some d -> Ok (Some d)
        | None -> Error (Printf.sprintf "unknown defect %S" defect_s)
    in
    let* invariant, rest = field "invariant" rest in
    let* step, rest = int_field "step" rest in
    let* count, rest = int_field "actions" rest in
    if List.length rest <> count then
      Error
        (Printf.sprintf "declared %d action(s) but found %d" count (List.length rest))
    else
      let* actions =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            match Schedule.of_string line with
            | Some a -> Ok (a :: acc)
            | None -> Error (Printf.sprintf "unparseable action %S" line))
          (Ok []) rest
      in
      Ok { seed; nsites; pool; defect; invariant; step; actions = List.rev actions }
  | h :: _ -> Error (Printf.sprintf "bad header %S (want %S)" h header)
  | [] -> Error "empty repro"

let save path r =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_string r);
  close_out oc;
  Sys.rename tmp path

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
