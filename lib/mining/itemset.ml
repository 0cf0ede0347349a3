(* Items and itemsets.

   An item is an (attribute, value) pair — e.g. (data, referral) — interned
   to a dense integer id so itemsets are sorted int arrays with cheap
   hashing, as Apriori's candidate generation requires. *)

type item = {
  attr : string;
  value : string;
}

type interner = {
  ids : (item, int) Hashtbl.t;
  mutable items : item array;
  mutable count : int;
}

let create_interner () = { ids = Hashtbl.create 256; items = [||]; count = 0 }

let intern t item =
  match Hashtbl.find_opt t.ids item with
  | Some id -> id
  | None ->
    let id = t.count in
    if id >= Array.length t.items then begin
      let capacity = max 16 (2 * Array.length t.items) in
      let items = Array.make capacity item in
      Array.blit t.items 0 items 0 t.count;
      t.items <- items
    end;
    t.items.(id) <- item;
    t.count <- t.count + 1;
    Hashtbl.add t.ids item id;
    id

let item_of_id t id =
  if id < 0 || id >= t.count then invalid_arg "Itemset.item_of_id";
  t.items.(id)

let universe_size t = t.count

(* An itemset is a strictly increasing array of item ids. *)
type t = int array

let of_list ids : t =
  let sorted = List.sort_uniq Int.compare ids in
  Array.of_list sorted

let to_list (s : t) = Array.to_list s

let size (s : t) = Array.length s

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let hash (s : t) = Array.fold_left (fun acc i -> (acc * 31) + i) 17 s

(* [subset a b]: is [a] a subset of [b]?  Both sorted; linear merge. *)
let subset (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let mem (s : t) id = Array.exists (fun x -> x = id) s

(* [union a b] of two sorted itemsets. *)
let union (a : t) (b : t) : t =
  let out = ref [] in
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la && j >= lb then ()
    else if i >= la then begin out := b.(j) :: !out; go i (j + 1) end
    else if j >= lb then begin out := a.(i) :: !out; go (i + 1) j end
    else if a.(i) = b.(j) then begin out := a.(i) :: !out; go (i + 1) (j + 1) end
    else if a.(i) < b.(j) then begin out := a.(i) :: !out; go (i + 1) j end
    else begin out := b.(j) :: !out; go i (j + 1) end
  in
  go 0 0;
  Array.of_list (List.rev !out)

(* [diff a b]: items of [a] not in [b]. *)
let diff (a : t) (b : t) : t = Array.of_list (List.filter (fun x -> not (mem b x)) (Array.to_list a))

(* All subsets of size (n-1): drop each element in turn. *)
let immediate_subsets (s : t) : t list =
  let n = Array.length s in
  List.init n (fun drop -> Array.init (n - 1) (fun i -> if i < drop then s.(i) else s.(i + 1)))

let pp interner ppf (s : t) =
  let render id =
    let item = item_of_id interner id in
    item.attr ^ "=" ^ item.value
  in
  Fmt.pf ppf "{%s}" (String.concat ", " (List.map render (to_list s)))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
