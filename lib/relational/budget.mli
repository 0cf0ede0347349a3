(** Per-query resource governor: quotas, a simulated-time deadline, and a
    cancellation tick, charged at operator boundaries.

    Create one {!t} per top-level statement (Engine does this for you via
    its [?budget] arguments) and the executor charges it as it works:
    a {e tick} per unit of work, a {e tuple} per intermediate row
    materialised, a {e row} per top-level result row.

    In {!Strict} mode (the default) a quota that fires raises
    {!Errors.Budget_exceeded}.  In {!Partial} mode operators instead stop
    consuming input at the quota: the result is a correct answer over a
    prefix of the data, flagged {!truncated} so callers can qualify it as a
    lower bound — the refinement loop's graceful-degradation path.
    Cancellation always raises {!Errors.Cancelled}, in both modes.

    A budget whose quotas never fire leaves results bitwise-identical to an
    ungoverned run. *)

type limits = {
  max_rows : int option;  (** top-level output rows *)
  max_tuples : int option;  (** intermediate tuples materialised *)
  deadline : int option;  (** total work ticks (simulated time) *)
  max_wall_ms : int option;  (** elapsed wall-clock milliseconds *)
}

val unlimited : limits

val limits : ?rows:int -> ?tuples:int -> ?ticks:int -> ?wall_ms:int -> unit -> limits
(** Omitted fields are unlimited. *)

val limits_min : limits -> limits -> limits
(** Pointwise tightest-wins combination — [None] defers to the other
    side, two quotas take the minimum.  Composes an admission grant with
    a standing query-limits policy. *)

type mode =
  | Strict  (** raise on exhaustion *)
  | Partial  (** truncate input on exhaustion; result is a lower bound *)

type t

val create : ?mode:mode -> ?cancel_at:int -> ?now:(unit -> float) -> limits -> t
(** [cancel_at] is the one way to cancel (default: never): the first
    tick that brings the counter to [cancel_at] or past it raises
    {!Errors.Cancelled}, so [~cancel_at:0] aborts the query at its first
    tick.  The engine runs one query at a time, so a cancellation is
    decided before the query starts.  [now] supplies the wall clock in
    milliseconds for [max_wall_ms] (default [Unix.gettimeofday]-based);
    inject a fake clock to make wall-deadline tests deterministic.  The
    clock is read once at creation and then on every tick while a wall
    deadline is set; without one it is never consulted. *)

val default : unit -> t
(** A fresh strict budget with unlimited quotas — the ungoverned path. *)

val mode : t -> mode

val stats : t -> Errors.budget_stats
(** Counters so far (also carried inside the budget exceptions). *)

val exhausted : t -> Errors.resource option
(** The first quota that fired, if any. *)

val truncated : t -> bool
(** True when a Partial-mode quota fired: the result covers only a prefix
    of the input and any statistic over it is a lower bound. *)

(** {2 Operator charge points} — used by the executor. *)

val step : t -> bool
(** Charge one work tick.  [true] to continue; [false] (Partial only) when
    a deadline (simulated or wall-clock) passed.
    @raise Errors.Cancelled when the tick counter reaches [cancel_at].
    @raise Errors.Budget_exceeded (Strict) when a deadline passes. *)

val admit : t -> bool
(** {!step} plus one materialised tuple against the tuple quota. *)

val admit_list : t -> 'a list -> 'a list
(** Charge a whole materialised row list.  Strict: charges each element
    and returns the list unchanged (physically the same list).  Partial:
    returns the admitted prefix. *)

val charge_rows : t -> 'a list -> 'a list
(** Charge the top-level result against the row quota.  Strict: raise when
    over; Partial: truncate the result to the quota. *)
