(** Coverage trends: bag coverage of an audit trail bucketed into time
    windows, judged against one fixed policy store.

    Where {!Refinement.run_epochs} asks how coverage evolves as the store
    is refined, a trend asks the question a privacy officer monitors
    continuously: against today's store, how covered was each period of
    the log?  A falling trend signals that practice has drifted away from
    policy again. *)

type point = {
  window_start : int;  (** inclusive *)
  window_end : int;  (** inclusive *)
  entries : int;
  stats : Coverage.stats;
}

val compute :
  ?attrs:string list ->
  Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  p_al:Policy.t ->
  window:int ->
  unit ->
  point list
(** Buckets audit rules by timestamp into consecutive windows of [window]
    ticks from the earliest timestamp, and returns one point per window
    that holds a rule, in time order: a window with no rule has no
    coverage to report.  Rules without a readable [time] attribute are
    ignored.
    @raise Invalid_argument when [window <= 0]. *)

val to_series : point list -> (string * float) list

val drifting : ?tolerance:float -> point list -> bool
(** True when the last window's coverage sits more than [tolerance]
    (default 0.1) below the best window's. *)

val pp : Format.formatter -> point list -> unit
