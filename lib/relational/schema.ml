(* Table schemas.  Column names are case-insensitive, matching SQL
   convention; qualifiers carry the table alias through joins so that
   [t.col] references resolve unambiguously. *)

type column = {
  name : string;
  ty : Value.ty;
  qualifier : string option;
}

type t = column array

let column ?qualifier name ty = { name = Name.fold name; ty; qualifier }

let of_list columns = Array.of_list columns

let arity (t : t) = Array.length t

let columns (t : t) = Array.to_list t

let column_names (t : t) = Array.to_list (Array.map (fun c -> c.name) t)

(* Resolution returns all candidate positions so callers can report
   ambiguity precisely.  A column's name is taken as stored, and the name
   looked up is folded to it, so a name stored with an upper-case letter
   matches nothing; qualifiers compare folded on both sides. *)
let rec find_from (t : t) qualifier name i acc =
  if i < 0 then acc
  else
    let c = t.(i) in
    let hit =
      Name.equal c.name name && Name.is_folded c.name
      &&
      match qualifier, c.qualifier with
      | None, _ -> true
      | Some q, Some cq -> Name.equal cq q
      | Some _, None -> false
    in
    find_from t qualifier name (i - 1) (if hit then i :: acc else acc)

let find_all (t : t) ?qualifier name = find_from t qualifier name (Array.length t - 1) []

let find (t : t) ?qualifier name =
  match find_all t ?qualifier name with
  | [ i ] -> Ok i
  | [] ->
    Error
      (Printf.sprintf "unknown column %s%s"
         (match qualifier with Some q -> q ^ "." | None -> "")
         name)
  | _ :: _ ->
    Error
      (Printf.sprintf "ambiguous column %s%s"
         (match qualifier with Some q -> q ^ "." | None -> "")
         name)

let find_exn (t : t) ?qualifier name =
  match find t ?qualifier name with
  | Ok i -> i
  | Error msg -> Errors.fail Errors.Plan "%s" msg

let mem (t : t) name = match find_all t name with [] -> false | _ :: _ -> true

let ty_at (t : t) i = t.(i).ty

let name_at (t : t) i = t.(i).name

(* Requalify every column, e.g. when a table is brought into scope under an
   alias in a FROM clause. *)
let with_qualifier (t : t) qualifier =
  Array.map (fun c -> { c with qualifier = Some qualifier }) t

let concat (a : t) (b : t) : t = Array.append a b

let pp_column ppf c =
  match c.qualifier with
  | Some q -> Fmt.pf ppf "%s.%s %s" q c.name (Value.ty_to_string c.ty)
  | None -> Fmt.pf ppf "%s %s" c.name (Value.ty_to_string c.ty)

let pp ppf (t : t) =
  Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_column) t
