(** Whole-system chaos harness: composed fault schedules against a
    model-based invariant checker.

    One seeded {!Schedule} drives a full {!Prima_system.System} — durable
    storage, fault-injected federation, budgeted queries, the refinement
    loop — while a pure {!Model} oracle receives the same inputs
    fault-free.  Ten invariants are checked as the run unfolds:

    + {b no-loss} — recovery yields a prefix of the appended entries,
      never below the durable floor (the lying-fsync [Truncated_sync]
      point excepted); consolidated windows are sub-multisets of the
      model trail.
    + {b quarantine-exactly-once} — [delivered + quarantined + skipped =
      total]; items unique per [(site, seq)]; crash recovery restores
      exactly the synced item set.
    + {b coverage-bound} — the system's coverage numerator/denominator
      never exceed the model's exact readings; nothing refinement accepts
      falls outside the fault-free epoch's acceptance.
    + {b recovery-idempotent} — recovering the same devices twice yields
      identical state with nothing newly dropped.
    + {b convergence} — after faults stop, consolidation, coverage and a
      final refinement all agree exactly with the model; the consolidated
      P_AL equals the model trail as a sequence, not only as a multiset.
    + {b tamper-evidence} — every injected bit-flip of an accepted
      (stable) audit record is reported as
      {!Durable.Recovery.Tamper_detected} at the exact frame offset,
      idempotently; the mutated record is never read back; the rebuilt
      system is durably degraded with [Lower_bound] coverage; and no
      ordinary crash is ever classified as tampering.
    + {b site-local-recovery} — a remote whose own WAL is power-cut
      recovers locally to a prefix of its ingested stream, never below its
      durable floor ([Truncated_sync] excepted), never as tampering,
      idempotently; a lossy recovery keeps coverage at [Lower_bound] until
      the feed replays the lost suffix, after which the system
      re-converges to [Exact].
    + {b cache-coherence} — after a mid-run vocabulary edit, the system's
      coverage readings equal a from-scratch recompute over the same
      policies under an identically rebuilt (freshly stamped) vocabulary:
      no grounding cache may answer from a dead stamp.  Checked at every
      edit and every consolidation.
    + {b purpose-plausibility} — multi-step clinical plans from
      {!Workload.Purpose} are classified exactly as generated: untwisted
      instances pass prefix conformance, twisted ones never do.
    + {b admission-fairness} — during an {!Schedule.action.Overload_storm}
      through {!Audit_mgmt.Admission.drain}, every non-storm tenant's
      admitted count equals its pure token-bucket floor exactly (a 10:1
      hot tenant cannot starve the others), the storm tenant matches the
      bucket-and-drain-capacity prediction, no mutation ever browns out,
      every shed carries an honest retry hint, and a shed batch leaves no
      partial mutation behind (store, sequence floor and quarantine all
      untouched).  The controller is client-owned: crashes and rebuilds
      must never refill a bucket or reset a counter.

    The raw federation path additionally checks mapping coherence: under
    the correct foreign-dialect mapping every raw record ingests and
    round-trips exactly; under a broken one every record quarantines
    (never drops); fixing the mapping reprocesses exactly the backlog.

    Fully deterministic in [seed]: a violation replays from its seed
    alone, or — via {!run_actions} — from an explicit (possibly shrunk)
    action list. *)

type violation = {
  step : int;  (** 1-based schedule position; 0 = setup, steps+1 = epilogue *)
  action : string;
  invariant : string;
  detail : string;
}

(** A deliberate, deterministic bug the harness can arm ({!run_actions}'s
    [defect]) so the {!Shrink} minimizer has real failures to work on. *)
type defect =
  | Eat_entry of int  (** swallow the [k]-th clinical append (1-based) *)
  | Drop_replay  (** skip the first post-crash replay of the lost suffix *)
  | Stale_vocab  (** never hand vocabulary edits to the system *)

val defect_to_string : defect -> string

val defect_of_string : string -> defect option
(** Total inverse of {!defect_to_string}; [None] on anything else. *)

(** What a run did and found, filled in by the harness; callers only read it. *)
type report = private {
  seed : int;
  steps : int;
  mutable actions_run : int;
  mutable appended : int;
  mutable crashes : int;
  mutable site_crashes : int;  (** power cuts to a remote site's own WAL *)
  mutable site_recovered : int;  (** entries the crashed sites replayed from their WALs *)
  mutable site_replayed : int;  (** lost-suffix entries the feed re-sent after site crashes *)
  mutable consolidations : int;
  mutable refines_ok : int;
  mutable refines_rejected : int;
  mutable degraded_epochs : int;
  mutable enforce_trips : int;
  mutable tampers : int;  (** bit-flips injected into accepted (stable) records *)
  mutable tampers_detected : int;  (** of those, reported as [Tamper_detected] *)
  mutable raw_ingested : int;  (** raw foreign-dialect records mapped and ingested *)
  mutable raw_quarantined : int;  (** raw records a broken mapping sent to quarantine *)
  mutable reprocessed : int;  (** quarantined records re-ingested after a mapping fix *)
  mutable workflows : int;  (** purpose-workflow plan instances appended *)
  mutable twisted_workflows : int;  (** of those, plan-implausible (twisted) ones *)
  mutable vocab_edits : int;  (** mid-run vocabulary edits adopted *)
  mutable storms : int;  (** overload bursts driven through the admission gate *)
  mutable storm_admitted : int;  (** storm + probe requests the gate admitted *)
  mutable storm_shed : int;  (** storm + probe requests shed, all-or-nothing *)
  mutable events : string list;  (** step-by-step fault log, oldest first *)
  mutable violation : violation option;
}

val run :
  ?nsites:int ->
  ?defect:defect ->
  ?trace:(string -> unit) ->
  seed:int ->
  steps:int ->
  unit ->
  report
(** Execute a [steps]-action schedule over [nsites] faulty remotes
    (default 2) plus the clinical DB, then the convergence epilogue.
    [trace] streams the event log as it is produced; [defect] arms one
    injected bug.  Stops at the first violation. *)

val run_actions :
  ?nsites:int ->
  ?defect:defect ->
  ?trace:(string -> unit) ->
  ?pool:int ->
  seed:int ->
  actions:Schedule.action list ->
  unit ->
  report
(** {!run} over an explicit action list — the replay/shrink entry point.
    [pool] fixes the workload pool size (default [3·|actions| + 120]);
    repros record it so a shrunk schedule draws from the same entry
    stream as the original run.  Deterministic in
    [(seed, nsites, pool, defect, actions)]. *)

val passed : report -> bool

val pp : Format.formatter -> report -> unit
val pp_violation : Format.formatter -> violation -> unit
