(** SplitMix64: a tiny, fast, high-quality deterministic PRNG.

    Experiments must be reproducible bit-for-bit across runs and machines,
    so the generator never touches the stdlib's global [Random] state. *)

type t

val create : seed:int -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** Uniform in [0, bound).
    @raise Invalid_argument when the bound is not positive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> probability:float -> bool

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)

val pick_weighted : t -> ('a * int) list -> 'a
(** Integer-weighted choice.
    @raise Invalid_argument when weights sum to 0 or less. *)
