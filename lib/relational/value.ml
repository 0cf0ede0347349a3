(* SQL values.  NULL is a first-class value; three-valued logic lives in
   Expr — here comparisons are total orders used for sorting and grouping,
   with NULL ordered first. *)

type ty =
  | T_int
  | T_float
  | T_string
  | T_bool

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let ty_to_string = function
  | T_int -> "INTEGER"
  | T_float -> "REAL"
  | T_string -> "TEXT"
  | T_bool -> "BOOLEAN"

let ty_of_string s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" | "TIMESTAMP" -> Some T_int
  | "REAL" | "FLOAT" | "DOUBLE" -> Some T_float
  | "TEXT" | "STRING" | "VARCHAR" | "CHAR" -> Some T_string
  | "BOOL" | "BOOLEAN" -> Some T_bool
  | _ -> None

let type_of = function
  | Null -> None
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | Str _ -> Some T_string
  | Bool _ -> Some T_bool

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

(* Numeric coercion: INTEGER widens to REAL when the two sides mix. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash x
  | Float x -> Hashtbl.hash x
  | Str x -> Hashtbl.hash x
  | Bool x -> Hashtbl.hash x

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Str x -> x
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"

(* SQL-literal rendering: strings quoted with '' doubling. *)
let to_sql_literal = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Str x ->
    let buffer = Buffer.create (String.length x + 2) in
    Buffer.add_char buffer '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buffer "''" else Buffer.add_char buffer c)
      x;
    Buffer.add_char buffer '\'';
    Buffer.contents buffer

let pp ppf v = Fmt.string ppf (to_string v)

let as_int = function
  | Int x -> Some x
  | Float x when Float.is_integer x -> Some (int_of_float x)
  | Null | Float _ | Str _ | Bool _ -> None

let as_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Null | Str _ | Bool _ -> None

let as_string = function
  | Str x -> Some x
  | Null | Int _ | Float _ | Bool _ -> None

(* Coerce a value into a column type at insert time; lossless widenings only. *)
let coerce ty v =
  match ty, v with
  | _, Null -> Some Null
  | T_int, Int _ -> Some v
  | T_int, Float f when Float.is_integer f -> Some (Int (int_of_float f))
  | T_float, Float _ -> Some v
  | T_float, Int i -> Some (Float (float_of_int i))
  | T_string, Str _ -> Some v
  | T_bool, Bool _ -> Some v
  | (T_int | T_float | T_string | T_bool), _ -> None
