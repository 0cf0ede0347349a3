(* [Prima_core.Trail] as it stood before it kept running counters and
   cached coverage verdicts, kept verbatim as the oracle for them: every
   request here walks every entry's codes.  The counters' and the cache's
   readings must equal these, [uncovered] listings included. *)

(* P_AL as dictionary-coded columns.

   Every entry is three codes: its pattern group — the distinct
   (data, purpose, authorized) projection, held once — its user, and
   Filter's two predicates as flag bits.  Filter, the default GROUP BY of
   Algorithm 5 and both coverage readings run over these codes, so their
   cost follows the number of distinct pattern groups, which the
   vocabulary bounds, rather than the number of entries.  The seven-term
   rules are built only when [policy] asks for them, from chunks the
   ingesting caller supplies.  The codes are kept per column: a table
   keyed by whole-entry shape would grow with every distinct user. *)

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

let exception_bit = 1
let prohibition_bit = 2
let no_group = -1

type t = {
  (* per entry: group code lsl 2, or'ed with the flag bits *)
  cells : int Vec.t;
  users : int Vec.t; (* per entry: user code, -1 when not exactly one *)
  group_codes : int Groups.t;
  groups : Rule.t Vec.t; (* code -> pattern rule, in first-seen order *)
  user_codes : int Users.t;
  (* every entry has exactly one term for each pattern attribute and for
     user, as audit entries always do *)
  mutable regular : bool;
  mutable materialized : Policy.t;
  mutable pending : Rule.t list Lazy.t list; (* not yet in [materialized], newest first *)
}

let create () =
  { cells = Vec.create ();
    users = Vec.create ();
    group_codes = Groups.create 16;
    groups = Vec.create ();
    user_codes = Users.create 16;
    regular = true;
    materialized = Policy.make ~source:Policy.Audit_log [];
    pending = [];
  }

let length t = Vec.length t.cells

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
    Vec.push t.groups rule;
    if not (regular_group rule) then t.regular <- false;
    code

let user_code t user =
  match Users.find t.user_codes user with
  | code -> code
  | exception Not_found ->
    let code = Users.length t.user_codes in
    Users.add t.user_codes user code;
    code

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
  let flags =
    (if e.exception_based then exception_bit else 0)
    lor if e.prohibition then prohibition_bit else 0
  in
  Vec.push t.cells ((group lsl 2) lor flags);
  Vec.push t.users user

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

let group_of cell = cell asr 2

(* Algorithm 3 fused with Algorithm 5's GROUP BY: one pass counts the
   practice entries and notes a second distinct user per group; groups
   surface in the order their first practice entry appears, which is the
   order the SQL engine's GROUP BY emits them. *)
let frequent_groups t ~keep_prohibitions ~frequent ~distinct_users =
  if not t.regular then invalid_arg "Trail.frequent_groups: irregular trail";
  let n = Vec.length t.groups in
  let count = Array.make n 0 in
  let first_user = Array.make n (-1) in
  let many_users = Array.make n false in
  let practice = ref 0 and order = ref [] in
  let dropped = if keep_prohibitions then 0 else prohibition_bit in
  for i = 0 to length t - 1 do
    let cell = Vec.get t.cells i in
    if cell land exception_bit <> 0 && cell land dropped = 0 then begin
      incr practice;
      let g = group_of cell and user = Vec.get t.users i in
      if count.(g) = 0 then begin
        order := g :: !order;
        first_user.(g) <- user
      end
      else if user <> first_user.(g) then many_users.(g) <- true;
      count.(g) <- count.(g) + 1
    end
  done;
  let patterns =
    List.rev !order
    |> List.filter (fun g -> frequent count.(g) && ((not distinct_users) || many_users.(g)))
    |> List.map (Vec.get t.groups)
  in
  (!practice, patterns)

(* Set semantics depend on Range(P_AL) only, which the distinct groups
   span exactly. *)
let coverage vocab t ~p_x =
  Coverage.compute vocab ~p_x
    ~p_y:(Policy.make ~source:Policy.Audit_log (Vec.to_list t.groups))

(* Bag semantics: each group is grounded once, and every entry counts
   with its group's verdict. *)
let coverage_bag vocab t ~p_x =
  let range_x = Range.of_policy vocab p_x in
  let covered = Array.map (Range.covers vocab range_x) (Vec.to_array t.groups) in
  let overlap = ref 0 and denominator = ref 0 and uncovered = ref [] in
  for i = length t - 1 downto 0 do
    let g = group_of (Vec.get t.cells i) in
    if g <> no_group then begin
      incr denominator;
      if covered.(g) then incr overlap else uncovered := Vec.get t.groups g :: !uncovered
    end
  done;
  { Coverage.overlap = !overlap;
    denominator = !denominator;
    coverage = Coverage.ratio !overlap !denominator;
    uncovered = !uncovered;
  }
