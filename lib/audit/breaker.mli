(** Per-site circuit breaker so a dead site cannot stall consolidation.

    [Closed] counts consecutive failures; at [failure_threshold] the breaker
    trips [Open] and the site is skipped until [cooldown] simulated
    milliseconds elapse, after which [Half_open] admits exactly {e one}
    probe at a time — a second [allow] before the probe's outcome is
    recorded is refused, so concurrent callers cannot stampede a
    barely-recovered site.  [success_threshold] consecutive probe
    successes close it, any failure re-opens.  Time is the simulated
    clock the retry layer advances, so breaker trajectories replay
    deterministically. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  cooldown : int;
  success_threshold : int;
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val state : t -> state
val config : t -> config

val trips : t -> int
(** Lifetime count of trips to [Open] — how often this site has flapped. *)

val allow : t -> now:int -> bool
(** May a request proceed at simulated time [now]?  [Open] transitions to
    [Half_open] here once the cooldown has elapsed. *)

val record_success : t -> unit
val record_failure : t -> now:int -> unit
val pp_state : Format.formatter -> state -> unit
