(* Growable array.  OCaml 5.1 has no Dynarray in the stdlib; tables and the
   audit store need amortised O(1) append with O(1) random access. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make capacity dummy = { data = Array.make (max capacity 1) dummy; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then Errors.internal "Vec.get: index %d out of bounds (len %d)" i t.len;
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then Errors.internal "Vec.set: index %d out of bounds (len %d)" i t.len;
  t.data.(i) <- x

let ensure_capacity t n x =
  if n > Array.length t.data then begin
    let capacity = max n (max 8 (2 * Array.length t.data)) in
    let data = Array.make capacity x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1) x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then Errors.internal "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t

let map f t =
  if t.len = 0 then create ()
  else begin
    let data = Array.init t.len (fun i -> f t.data.(i)) in
    { data; len = t.len }
  end

let filter p t =
  let out = create () in
  iter (fun x -> if p x then push out x) t;
  out

let copy t = { data = Array.copy t.data; len = t.len }
