(* SplitMix64: a tiny, fast, high-quality deterministic PRNG.  Experiments
   must be reproducible bit-for-bit across runs and machines, so the
   generator never touches the stdlib's global Random state. *)

type t = {
  mutable state : int64;
}

let create ~seed = { state = Int64.of_int seed }

(* Every draw moves the state by this fixed odd increment, so [n] draws
   move it by [n] times it (mod 2^64). *)
let gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let skip t n =
  if n < 0 then invalid_arg "Splitmix.skip: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) gamma)

(* Uniform in [0, bound).  The shift by 2 keeps 62 bits, which always fits
   positively in OCaml's 63-bit native int. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

(* Uniform in [0, 1). *)
let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let bool t ~probability = float t < probability

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

(* Pick with integer weights. *)
let pick_weighted t pairs =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 pairs in
  if total <= 0 then invalid_arg "Prng.pick_weighted: weights must sum to > 0";
  let target = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Prng.pick_weighted: unreachable"
    | (x, w) :: rest -> if target < acc + w then x else go (acc + w) rest
  in
  go 0 pairs
