(* P_AL, coded.  Every entry is held as the code of its pattern group —
   the distinct (data, purpose, authorized) projection, held once; its
   user (coded apart, so no table grows with whole-entry shapes) and
   Filter's two predicates go into the group's running counters.  The
   seven-term rules are built only when [policy] asks for them, from
   chunks the ingesting caller supplies.  A trail only grows, so every
   reading carries its state forward: Filter fused with Algorithm 5's
   GROUP BY is a scan over the counters, and coverage caches per-group
   verdicts for one store under one vocabulary and extends the bag
   [uncovered] listing by the entries appended since.  A request costs
   O(new entries + groups), plus a copy of that listing when it grows. *)

module Vec = Relational.Vec

module Groups = Hashtbl.Make (struct
  type t = Rule.t

  let equal = Rule.equal
  let hash = Rule.hash
end)

module Users = Hashtbl.Make (String)

type entry = {
  pattern : Rule.t option;
  user : string option;
  exception_based : bool;
  prohibition : bool;
}

let no_group = -1

(* Filter's practice entries in one group under one setting of
   keep_prohibitions: how many, the first one's user, and whether an
   entry by another user followed. *)
type practice = { mutable count : int; mutable first_user : int; mutable many_users : bool }

(* A pattern group, its entries, and its practice entries with
   prohibitions dropped ([practice.(0)]) and kept ([practice.(1)]). *)
type group = { rule : Rule.t; mutable total : int; practice : practice array }

(* The coverage verdicts of one store (the projected P_x, compared rule by
   rule) under one vocabulary, for the groups judged so far. *)
type verdicts = {
  stamp : int;
  store : Rule.t list;
  range : Range.t; (* Range(P_x) *)
  covered : bool Vec.t; (* per group *)
  mutable set : (int * Coverage.stats) option; (* the set reading, over that many groups *)
  mutable uncovered : Rule.t list; (* the bag listing over the first [upto] entries *)
  mutable upto : int;
}

type t = {
  entries : int Vec.t; (* per entry: its group's code, or [no_group] *)
  group_codes : int Groups.t;
  groups : group Vec.t; (* by code, in first-seen order *)
  user_codes : int Users.t;
  (* per setting of keep_prohibitions, indexed as [group.practice]: the
     groups in the order their first practice entry came *)
  first_practice : group Vec.t array;
  mutable verdicts : verdicts option;
  (* every entry has exactly one term for each pattern attribute and for
     user, as audit entries always do *)
  mutable regular : bool;
  mutable materialized : Policy.t;
  mutable pending : Rule.t list Lazy.t list; (* not yet in [materialized], newest first *)
}

let create () =
  { entries = Vec.create ();
    group_codes = Groups.create 16;
    groups = Vec.create ();
    user_codes = Users.create 16;
    first_practice = [| Vec.create (); Vec.create () |];
    verdicts = None;
    regular = true;
    materialized = Policy.make ~source:Policy.Audit_log [];
    pending = [];
  }

let length t = Vec.length t.entries

let regular t = t.regular

let entry_of_rule rule =
  let users =
    List.filter
      (fun term -> String.equal (Rule_term.attr term) Vocabulary.Audit_attrs.user)
      (Rule.terms rule)
  in
  { pattern = Rule.project rule ~attrs:Vocabulary.Audit_attrs.pattern;
    user = (match users with [ term ] -> Some (Rule_term.value term) | _ -> None);
    exception_based = Filter.is_exception rule;
    prohibition = Filter.is_prohibition rule;
  }

(* A projection holds pattern attributes only, so three terms over three
   distinct attributes is exactly one term for each. *)
let regular_group rule =
  Rule.cardinality rule = 3
  && List.for_all
       (fun attr -> Option.is_some (Rule.find_attr rule attr))
       Vocabulary.Audit_attrs.pattern

let group_code t rule =
  match Groups.find t.group_codes rule with
  | code -> code
  | exception Not_found ->
    let code = Vec.length t.groups in
    Groups.add t.group_codes rule code;
    let practice () = { count = 0; first_user = -1; many_users = false } in
    Vec.push t.groups { rule; total = 0; practice = [| practice (); practice () |] };
    if not (regular_group rule) then t.regular <- false;
    code

let user_code t user =
  match Users.find t.user_codes user with
  | code -> code
  | exception Not_found ->
    let code = Users.length t.user_codes in
    Users.add t.user_codes user code;
    code

(* Algorithm 5's GROUP BY counters, for an entry Algorithm 3 keeps under
   setting [k]: groups are listed in the order their first practice entry
   comes, which is the order the SQL engine's GROUP BY emits them. *)
let count_practice t g k user =
  let p = g.practice.(k) in
  if p.count = 0 then begin
    Vec.push t.first_practice.(k) g;
    p.first_user <- user
  end
  else if user <> p.first_user then p.many_users <- true;
  p.count <- p.count + 1

let add t e =
  let group =
    match e.pattern with
    | Some rule -> group_code t rule
    | None ->
      t.regular <- false;
      no_group
  in
  let user =
    match e.user with
    | Some user -> user_code t user
    | None ->
      t.regular <- false;
      -1
  in
  Vec.push t.entries group;
  if group <> no_group then begin
    let g = Vec.get t.groups group in
    g.total <- g.total + 1;
    if e.exception_based then begin
      if not e.prohibition then count_practice t g 0 user;
      count_practice t g 1 user
    end
  end

let append t ~rules code items =
  if items <> [] then begin
    List.iter (fun item -> add t (code item)) items;
    t.pending <- rules :: t.pending
  end

let append_rules t rules = append t ~rules:(Lazy.from_val rules) entry_of_rule rules

let policy t =
  if t.pending <> [] then begin
    t.materialized <-
      Policy.add_rules t.materialized (List.concat_map Lazy.force (List.rev t.pending));
    t.pending <- []
  end;
  t.materialized

let frequent_groups t ~keep_prohibitions ~frequent ~distinct_users =
  if not t.regular then invalid_arg "Trail.frequent_groups: irregular trail";
  let k = Bool.to_int keep_prohibitions in
  let scan (total, patterns) g =
    let p = g.practice.(k) in
    let keep = frequent p.count && ((not distinct_users) || p.many_users) in
    (total + p.count, if keep then g.rule :: patterns else patterns)
  in
  let total, patterns = Vec.fold_left scan (0, []) t.first_practice.(k) in
  (total, List.rev patterns)

(* The verdicts of [p_x]'s store under [vocab], judging the groups that
   appeared since.  A new store or vocabulary judges every group again
   and starts the bag listing afresh. *)
let judge vocab t p_x =
  let stamp = Vocabulary.Vocab.stamp vocab and store = Policy.rules p_x in
  let v =
    match t.verdicts with
    | Some v when v.stamp = stamp && List.equal Rule.equal v.store store -> v
    | _ ->
      let range = Range.of_policy vocab p_x in
      let covered = Vec.map (fun g -> Range.covers vocab range g.rule) t.groups in
      let v = { stamp; store; range; covered; set = None; uncovered = []; upto = 0 } in
      t.verdicts <- Some v;
      v
  in
  for g = Vec.length v.covered to Vec.length t.groups - 1 do
    Vec.push v.covered (Range.covers vocab v.range (Vec.get t.groups g).rule)
  done;
  v

(* Set semantics depend on Range(P_AL) only, which the distinct groups
   span exactly; the reading stands until a new group appears. *)
let coverage vocab t ~p_x =
  let v = judge vocab t p_x and groups = Vec.length t.groups in
  match v.set with
  | Some (n, stats) when n = groups -> stats
  | _ ->
    let rules = List.map (fun g -> g.rule) (Vec.to_list t.groups) in
    let stats = Coverage.compute vocab ~p_x ~p_y:(Policy.make ~source:Policy.Audit_log rules) in
    v.set <- Some (groups, stats);
    stats

(* Bag semantics: every entry counts with its group's verdict.  The
   uncovered listing is extended by the entries appended since. *)
let coverage_bag vocab t ~p_x =
  let v = judge vocab t p_x in
  let fresh = ref [] in
  for i = length t - 1 downto v.upto do
    let g = Vec.get t.entries i in
    if g <> no_group && not (Vec.get v.covered g) then fresh := (Vec.get t.groups g).rule :: !fresh
  done;
  if !fresh <> [] then v.uncovered <- v.uncovered @ !fresh;
  v.upto <- length t;
  let overlap = ref 0 and denominator = ref 0 in
  Vec.iteri
    (fun code g ->
      denominator := !denominator + g.total;
      if Vec.get v.covered code then overlap := !overlap + g.total)
    t.groups;
  { Coverage.overlap = !overlap;
    denominator = !denominator;
    coverage = Coverage.ratio !overlap !denominator;
    uncovered = v.uncovered;
  }
