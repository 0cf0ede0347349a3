(* SQL names are ASCII case-insensitive.  A name is folded to lower case
   where it is stored; a name being looked up is compared with a stored
   one byte by byte, folding each byte as it goes.  The loops are
   top-level functions so that a comparison allocates no closure. *)

let rec equal_from a b i =
  i = String.length a
  || Char.equal (Char.lowercase_ascii a.[i]) (Char.lowercase_ascii b.[i])
     && equal_from a b (i + 1)

let equal a b = String.length a = String.length b && equal_from a b 0

let is_folded s = not (String.exists (fun c -> c >= 'A' && c <= 'Z') s)

let fold s = if is_folded s then s else String.lowercase_ascii s

let rec hash_from s h i =
  if i = String.length s then h land max_int
  else hash_from s ((h * 31) + Char.code (Char.lowercase_ascii s.[i])) (i + 1)

module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = equal
  let hash s = hash_from s 0 0
end)
