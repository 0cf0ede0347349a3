(* The human step between Prune and adoption.

   The paper is explicit that Prune's output is not auto-adopted: "human
   input is prudent at this stage to determine which patterns are actually
   good practice and which should be investigated or terminated."  This
   module is that workstation: useful patterns are queued with their
   supporting evidence, a privacy officer approves, rejects or flags each
   for investigation, and only approved patterns flow back into the policy
   store. *)

type evidence = {
  occurrences : int; (* practice entries matching the pattern *)
  distinct_users : string list;
  first_seen : int option; (* earliest timestamp among supporting entries *)
  last_seen : int option;
}

type decision =
  | Approved
  | Rejected of string (* reason, e.g. "single-user snooping" *)
  | Investigate of string (* handed to security, e.g. possible violation *)

type state =
  | Pending
  | Decided of { decision : decision; by : string; at : int }

type item = {
  id : int;
  pattern : Rule.t;
  evidence : evidence;
  submitted_at : int;
  mutable state : state;
}

type t = {
  mutable items : item list; (* newest first *)
  mutable next_id : int;
  mutable clock : int;
}

let create () = { items = []; next_id = 1; clock = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let items t = List.rev t.items

let pending t = List.filter (fun i -> i.state = Pending) (items t)

let find t id = List.find_opt (fun i -> i.id = id) t.items

(* Supporting evidence from the practice entries the pattern was mined
   from. *)
let gather_evidence (practice : Policy.t) (pattern : Rule.t) : evidence =
  let pattern_assoc = Rule.to_assoc pattern in
  let matching =
    List.filter
      (fun rule ->
        let assoc = Rule.to_assoc rule in
        List.for_all (fun (a, v) -> List.assoc_opt a assoc = Some v) pattern_assoc)
      (Policy.rules practice)
  in
  let users =
    List.filter_map (fun rule -> Rule.find_attr rule Vocabulary.Audit_attrs.user) matching
    |> List.sort_uniq String.compare
  in
  let times =
    List.filter_map
      (fun rule ->
        Option.bind (Rule.find_attr rule Vocabulary.Audit_attrs.time) int_of_string_opt)
      matching
  in
  { occurrences = List.length matching;
    distinct_users = users;
    first_seen = (match times with [] -> None | ts -> Some (List.fold_left min max_int ts));
    last_seen = (match times with [] -> None | ts -> Some (List.fold_left max min_int ts));
  }

(* [submit t ~practice pattern] queues a pattern unless an item for it
   already exists (pending or decided); returns the item either way. *)
let submit t ~practice pattern : item =
  match List.find_opt (fun i -> Rule.equal_syntactic i.pattern pattern) t.items with
  | Some existing -> existing
  | None ->
    let item =
      { id = t.next_id;
        pattern;
        evidence = gather_evidence practice pattern;
        submitted_at = tick t;
        state = Pending;
      }
    in
    t.next_id <- t.next_id + 1;
    t.items <- item :: t.items;
    item

(* Queue every useful pattern of a refinement run. *)
let submit_epoch t ~practice (report : Refinement.epoch_report) : item list =
  List.map (submit t ~practice) report.Refinement.useful

let decide t ~id ~by decision : (item, string) result =
  match find t id with
  | None -> Error (Printf.sprintf "no review item %d" id)
  | Some item -> begin
    match item.state with
    | Decided _ -> Error (Printf.sprintf "item %d is already decided" id)
    | Pending ->
      item.state <- Decided { decision; by; at = tick t };
      Ok item
  end

let approved_patterns t =
  List.filter_map
    (fun i ->
      match i.state with
      | Decided { decision = Approved; _ } -> Some i.pattern
      | Decided _ | Pending -> None)
    (items t)

let rejected_patterns t =
  List.filter_map
    (fun i ->
      match i.state with
      | Decided { decision = Rejected _; _ } -> Some i.pattern
      | Decided _ | Pending -> None)
    (items t)

let under_investigation t =
  List.filter
    (fun i -> match i.state with Decided { decision = Investigate _; _ } -> true | _ -> false)
    (items t)

(* An acceptance policy that adopts exactly the patterns this queue has
   approved — plug into Refinement so re-runs pick up past decisions and
   never auto-adopt anything new. *)
let acceptance t : Refinement.acceptance =
  Refinement.Oracle (fun pattern ->
      List.exists
        (fun i ->
          match i.state with
          | Decided { decision = Approved; _ } -> Rule.equal_syntactic i.pattern pattern
          | Decided _ | Pending -> false)
        t.items)

let pp_item ppf item =
  let state =
    match item.state with
    | Pending -> "pending"
    | Decided { decision = Approved; by; _ } -> "approved by " ^ by
    | Decided { decision = Rejected reason; by; _ } ->
      Printf.sprintf "rejected by %s (%s)" by reason
    | Decided { decision = Investigate reason; by; _ } ->
      Printf.sprintf "under investigation, flagged by %s (%s)" by reason
  in
  Fmt.pf ppf "#%d %s — %d occurrences by %d users — %s" item.id
    (Rule.to_compact_string ~attrs:Vocabulary.Audit_attrs.pattern item.pattern)
    item.evidence.occurrences
    (List.length item.evidence.distinct_users)
    state

let pp ppf t =
  match items t with
  | [] -> Fmt.pf ppf "review queue: empty@."
  | items -> List.iter (fun i -> Fmt.pf ppf "%a@." pp_item i) items
