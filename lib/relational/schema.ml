(* Table schemas.  Column names are case-insensitive, matching SQL
   convention; qualifiers carry the table alias through joins so that
   [t.col] references resolve unambiguously. *)

type column = {
  name : string;
  ty : Value.ty;
  qualifier : string option;
}

type t = column array

let column ?qualifier name ty = { name = String.lowercase_ascii name; ty; qualifier }

let of_list columns = Array.of_list columns

let arity (t : t) = Array.length t

let columns (t : t) = Array.to_list t

let column_names (t : t) = Array.to_list (Array.map (fun c -> c.name) t)

let normalize = String.lowercase_ascii

(* Resolution returns all candidate positions so callers can report
   ambiguity precisely. *)
let find_all (t : t) ?qualifier name =
  let name = normalize name in
  let qualifier = Option.map normalize qualifier in
  let matches i c =
    let name_ok = String.equal c.name name in
    let qual_ok =
      match qualifier with
      | None -> true
      | Some q -> (match c.qualifier with Some cq -> String.equal (normalize cq) q | None -> false)
    in
    if name_ok && qual_ok then Some i else None
  in
  Array.to_list t |> List.mapi matches |> List.filter_map Fun.id

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

let mem (t : t) name = find_all t name <> []

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
