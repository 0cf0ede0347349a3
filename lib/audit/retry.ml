(* Bounded retry with exponential backoff and jitter, over a *simulated*
   millisecond clock.  Consolidation must be reproducible bit-for-bit (the
   fault-matrix suite replays seeded failure schedules), so nothing here
   reads wall-clock time or sleeps: the caller passes a clock cell that
   retries advance by their computed delays, and jitter draws from the
   shared SplitMix stream. *)

type policy = {
  max_attempts : int; (* total tries, including the first *)
  base_delay : int; (* ms before the second attempt *)
  max_delay : int; (* backoff ceiling, ms *)
  jitter : float; (* +/- fraction of the delay, in [0, 1] *)
  deadline : int; (* overall budget, ms; attempts stop once exceeded *)
}

let default =
  { max_attempts = 4; base_delay = 50; max_delay = 2_000; jitter = 0.25; deadline = 10_000 }

let no_retry = { default with max_attempts = 1 }

type stats = {
  attempts : int;
  elapsed : int; (* simulated ms spent waiting between attempts *)
}

(* Backoff before attempt [n+1] (1-based n): base * 2^(n-1), capped, then
   jittered multiplicatively in [1 - j/2, 1 + j/2]. *)
let delay_before policy prng ~attempt =
  let exp = Int.shift_left 1 (min 20 (attempt - 1)) in
  let raw = min policy.max_delay (policy.base_delay * exp) in
  if policy.jitter <= 0. then raw
  else
    let factor = 1. -. (policy.jitter /. 2.) +. (policy.jitter *. Splitmix.float prng) in
    max 0 (int_of_float (float_of_int raw *. factor))

(* The deadline boundary, pinned: the budget is the half-open window
   [0, deadline) of elapsed simulated ms.  An attempt that would start at
   exactly [deadline] is refused — both the post-failure check and the
   post-backoff check use the same closed comparison, so the boundary
   cannot drift between the two call sites (regression-tested). *)
let deadline_reached policy ~start ~clock = clock - start >= policy.deadline

(* Run [f] until it returns [Ok], attempts are exhausted, or the deadline
   is blown.  [f] receives the 1-based attempt number.  The last error wins;
   the clock cell ends at start + elapsed backoff. *)
let run ?(policy = default) ~prng ~clock f =
  let start = !clock in
  let rec go attempt =
    match f ~attempt with
    | Ok v -> (Ok v, { attempts = attempt; elapsed = !clock - start })
    | Error e ->
      if attempt >= policy.max_attempts || deadline_reached policy ~start ~clock:!clock
      then (Error e, { attempts = attempt; elapsed = !clock - start })
      else begin
        clock := !clock + delay_before policy prng ~attempt;
        if deadline_reached policy ~start ~clock:!clock then
          (Error e, { attempts = attempt; elapsed = !clock - start })
        else go (attempt + 1)
      end
  in
  go 1

