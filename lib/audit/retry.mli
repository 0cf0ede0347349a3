(** Bounded retry with exponential backoff and jitter, over a simulated
    millisecond clock.

    Nothing here reads wall-clock time or sleeps: the caller passes a clock
    cell that retries advance by their computed delays, and jitter draws
    from the shared {!Splitmix} stream — every retry schedule is
    reproducible bit-for-bit from the seed. *)

type policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_delay : int;  (** ms before the second attempt *)
  max_delay : int;  (** backoff ceiling, ms *)
  jitter : float;  (** +/- fraction of the delay, in [0, 1] *)
  deadline : int;
      (** overall budget: the half-open window [0, deadline) of elapsed
          simulated ms.  An attempt that would start at {e exactly}
          [deadline] is refused — the boundary is closed, identically at
          both the post-failure and the post-backoff check. *)
}

val default : policy
val no_retry : policy

type stats = {
  attempts : int;
  elapsed : int;  (** simulated ms spent waiting between attempts *)
}

val delay_before : policy -> Splitmix.t -> attempt:int -> int
(** Jittered backoff before attempt [attempt + 1] (1-based). *)

val run :
  ?policy:policy ->
  prng:Splitmix.t ->
  clock:int ref ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result * stats
(** Run until [Ok], attempts are exhausted, or the deadline is blown.  The
    callback receives the 1-based attempt number; the last error wins. *)
