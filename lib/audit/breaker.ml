(* Per-site circuit breaker: a dead site must not stall consolidation.

     Closed     -- normal; consecutive failures counted
     Open       -- site skipped until the cooldown elapses
     Half_open  -- cooldown over; exactly ONE probe in flight at a time —
                   a second [allow] before the probe's outcome is recorded
                   is refused, so concurrent callers cannot stampede a
                   barely-recovered site; [success_threshold] consecutive
                   probe successes close, any failure re-opens

   Time is the same simulated millisecond clock the retry layer advances,
   so breaker trajectories replay deterministically with the fault
   schedule. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int; (* consecutive failures that trip Closed -> Open *)
  cooldown : int; (* ms in Open before probing *)
  success_threshold : int; (* consecutive probe successes to close again *)
}

let default_config = { failure_threshold = 3; cooldown = 5_000; success_threshold = 1 }

type t = {
  config : config;
  mutable state : state;
  mutable failures : int; (* consecutive, while Closed *)
  mutable successes : int; (* consecutive, while Half_open *)
  mutable opened_at : int; (* clock value of the last trip *)
  mutable trips : int; (* lifetime Closed/Half_open -> Open transitions *)
  mutable probing : bool; (* Half_open: the single admitted probe is in flight *)
}

let create ?(config = default_config) () =
  { config;
    state = Closed;
    failures = 0;
    successes = 0;
    opened_at = 0;
    trips = 0;
    probing = false;
  }

let state t = t.state

let config t = t.config

let trips t = t.trips

(* May a request proceed at simulated time [now]?  Open transitions to
   Half_open here once the cooldown has elapsed — that admission IS the
   single probe, and further requests are refused until its outcome is
   recorded. *)
let allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open ->
    if t.probing then false
    else begin
      t.probing <- true;
      true
    end
  | Open ->
    if now - t.opened_at >= t.config.cooldown then begin
      t.state <- Half_open;
      t.successes <- 0;
      t.probing <- true;
      true
    end
    else false

let trip t ~now =
  t.state <- Open;
  t.opened_at <- now;
  t.failures <- 0;
  t.successes <- 0;
  t.probing <- false;
  t.trips <- t.trips + 1

let record_success t =
  match t.state with
  | Closed -> t.failures <- 0
  | Open -> () (* success without permission: ignore *)
  | Half_open ->
    t.probing <- false;
    t.successes <- t.successes + 1;
    if t.successes >= t.config.success_threshold then begin
      t.state <- Closed;
      t.failures <- 0;
      t.successes <- 0
    end

let record_failure t ~now =
  match t.state with
  | Closed ->
    t.failures <- t.failures + 1;
    if t.failures >= t.config.failure_threshold then trip t ~now
  | Half_open -> trip t ~now
  | Open -> ()

let pp_state ppf = function
  | Closed -> Fmt.string ppf "closed"
  | Open -> Fmt.string ppf "open"
  | Half_open -> Fmt.string ppf "half-open"
