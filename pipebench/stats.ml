(* Order statistics over timing samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile [q] in (0, 1) with the number of samples that lie
   beyond it; a percentile is only worth reporting with >= 10 beyond. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let rank = max 1 (min n rank) in
  if n = 0 then (nan, 0) else (a.(rank - 1), n - rank)

let min_beyond = 10

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
   exclusive method); the spread of a run's samples is (q3 - q1) / median. *)
let quartile_spread xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let at p =
      let h = (float_of_int (n + 1) *. p) -. 1. in
      let i = max 0 (min (n - 2) (int_of_float (Float.floor h))) in
      let f = Float.min 1. (Float.max 0. (h -. float_of_int i)) in
      a.(i) +. (f *. (a.(i + 1) -. a.(i)))
    in
    (at 0.75 -. at 0.25) /. median xs
  end
