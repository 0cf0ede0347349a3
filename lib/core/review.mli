(** The human step between Prune and adoption.

    The paper: "human input is prudent at this stage to determine which
    patterns are actually good practice and which should be investigated or
    terminated."  Useful patterns are queued with their supporting
    evidence; a privacy officer approves, rejects, or flags each; only
    approved patterns flow back into the policy store. *)

type evidence = {
  occurrences : int;  (** practice entries matching the pattern *)
  distinct_users : string list;
  first_seen : int option;
  last_seen : int option;
}

type decision =
  | Approved
  | Rejected of string  (** with a reason, e.g. "single-user snooping" *)
  | Investigate of string  (** handed to security *)

type state =
  | Pending
  | Decided of { decision : decision; by : string; at : int }

type item = {
  id : int;
  pattern : Rule.t;
  evidence : evidence;
  submitted_at : int;
  mutable state : state;
}

type t

val create : unit -> t
val items : t -> item list
(** Oldest first. *)

val pending : t -> item list
val find : t -> int -> item option

val gather_evidence : Policy.t -> Rule.t -> evidence
(** Occurrences, distinct users, and the time span of the supporting
    practice entries. *)

val submit : t -> practice:Policy.t -> Rule.t -> item
(** Queues a pattern; resubmission of a known pattern returns the existing
    item unchanged (decisions are never reopened silently). *)

val submit_epoch : t -> practice:Policy.t -> Refinement.epoch_report -> item list
(** Queue every useful pattern of a refinement run. *)

val decide : t -> id:int -> by:string -> decision -> (item, string) result
(** [Error] for unknown ids and already-decided items. *)

val approved_patterns : t -> Rule.t list
val rejected_patterns : t -> Rule.t list
val under_investigation : t -> item list

val acceptance : t -> Refinement.acceptance
(** Adopts exactly the patterns this queue has approved: plug into
    {!Refinement} so re-runs pick up past decisions and never auto-adopt
    anything new. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
