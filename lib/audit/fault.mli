(** Deterministic fault injection around a {!Site}.

    A wrapped site can be unavailable (every fetch fails until healed),
    slow (an attempt blows its timeout), transiently flaky (a retry may
    succeed) or corrupting (individual records arrive damaged and must be
    quarantined).  Every decision draws from a {!Splitmix} stream owned by
    the wrapper, so a given seed replays the exact failure schedule;
    [heal] restores the site, which is what lets the convergence oracle
    compare a degraded run against its fault-free baseline. *)

type failure =
  | Unavailable  (** persistent outage until healed *)
  | Timed_out  (** this attempt exceeded its deadline *)
  | Transient  (** flaky attempt; retrying may succeed *)

val failure_to_string : failure -> string

type config = {
  p_unavailable : float;  (** site down for the whole run, decided at wrap *)
  p_timeout : float;  (** per attempt *)
  p_flaky : float;  (** per attempt *)
  p_corrupt : float;  (** per record on a successful fetch *)
  latency : int;  (** simulated ms per successful fetch *)
  timeout_cost : int;  (** simulated ms burned by a timed-out attempt *)
}

val no_faults : config
val default_config : config

type t

val wrap : ?config:config -> seed:int -> Site.t -> t
(** The persistent-outage draw happens here, once, from the seed. *)

val site : t -> Site.t

val reseat : t -> Site.t -> unit
(** Point the wrapper at a replacement — e.g. a site rebuilt from its WAL
    after a crash.  The PRNG keeps its position, so a reseat does not
    disturb the fault schedule. *)

val config : t -> config
val is_down : t -> bool

val heal : t -> unit
(** Clear every injected fault; the PRNG keeps its position so healing one
    site does not disturb the others' schedules. *)

val take_down : t -> unit
(** Force the persistent outage on — e.g. to script a breaker trajectory. *)

val restore : t -> unit

type fetched = {
  delivered : Hdb.Audit_schema.entry list;  (** clean records, store order *)
  corrupted : (int * (string * string) list * string) list;
      (** (seq, garbled raw, reason) for records damaged in transit *)
}

val fetch : ?from:int -> t -> clock:int ref -> (fetched, failure) result
(** One fetch attempt at the simulated clock, carrying the records at seqs
    [from, length) (default [from = 0], the whole store).  The fault
    stream advances exactly as a whole fetch's would: the timeout and
    flaky draws, then one corruption draw per record of the whole store —
    skipped in O(1) when [p_corrupt <= 0], where no draw can damage a
    record.  The site keeps the originals of corrupted records, so a later
    clean fetch recovers them. *)
