(** Delta-debugging minimizer for failing chaos schedules.

    A 400-step failing schedule is a haystack: the handful of actions that
    actually interact to violate an invariant are buried among hundreds of
    bystanders.  {!shrink} reduces a failing action list to a
    1-minimal repro — every remaining action is load-bearing: deleting any
    one of them makes the failure disappear — by ddmin chunk deletion
    followed by action-level simplification passes (clock-advance
    collapsing, count/pick/site-index parameter reduction, governed →
    plain refinement) and a site-count reduction, each candidate validated
    by deterministically re-running the harness ({!Harness.run_actions})
    and demanding the {e same} invariant still fail.

    Everything is deterministic: the same failing repro shrinks to the
    same minimal repro, byte for byte, every time.  Minimal repros
    serialize to a line-oriented text format ({!to_string}/{!of_string},
    {!save}/{!load}) and replay from the file alone, so they can be
    committed as pinned regressions. *)

type repro = {
  seed : int;  (** workload/device/fault seed of the original run *)
  nsites : int;
  pool : int;  (** workload pool size of the original run — recorded so a
                   shrunk schedule draws from the same entry stream *)
  defect : Harness.defect option;
  invariant : string;  (** the invariant the schedule violates *)
  step : int;  (** violation step when this repro last ran *)
  actions : Schedule.action list;
}

val replay : repro -> Harness.report
(** Re-run the repro's schedule ({!Harness.run_actions}). *)

val still_fails : repro -> bool
(** Whether {!replay} violates the {e recorded} invariant ([invariant]
    field) — a different violation does not count. *)

val of_report : ?defect:Harness.defect -> ?nsites:int -> actions:Schedule.action list ->
  Harness.report -> repro option
(** Package a failing run as a repro ([None] if the report passed).
    [nsites] defaults to 2, matching {!Harness.run}'s default; [pool] is
    taken as [3·steps + 120], {!Harness.run}'s derivation. *)

type stats = {
  original : int;  (** actions before shrinking *)
  minimal : int;  (** actions after *)
  candidates : int;  (** harness runs spent *)
  rounds : int;  (** ddmin+pass fixpoint iterations *)
}

val shrink : repro -> repro * stats
(** Minimize: ddmin to 1-minimality, then the simplification passes, to a
    fixpoint (at most 10 rounds).  The result still fails
    the recorded invariant; its [step] is updated to the violation step of
    the minimal schedule.  Deterministic in the input repro. *)

(** {1 Serialization} *)

val to_string : repro -> string
(** Line-oriented: a [prima-chaos-repro v1] header, one [key value] line
    per field, then one {!Schedule.to_string} line per action. *)

val of_string : string -> (repro, string) result
(** Total inverse of {!to_string}; [Error] names the offending line. *)

val save : string -> repro -> unit
(** Write [to_string] to a file (atomically via a temp file + rename). *)

val load : string -> (repro, string) result
