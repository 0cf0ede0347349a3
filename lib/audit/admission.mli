(** Multi-tenant admission control: budget classes, load shedding and
    brownout.

    Every request entering the federation — an ingestion batch or an
    enforcement/refinement query — carries a {!principal} (tenant, user,
    and the PR 6 provenance session/request ids).  Principals map to
    {e budget classes}: per-class token buckets over the same four
    resources the query governor meters (rows, tuples, ticks, wall
    milliseconds), refilled on the simulated millisecond clock.  The
    refill boundary is {e closed}: a token owed at exactly-now is granted
    at that tick, mirroring {!Retry.deadline_reached}'s [>=] treatment of
    the retry deadline.  A zero-capacity class never admits and its
    rejections carry no retry hint ([retry_after_ms = None]).

    Decisions are all-or-nothing with respect to state: an {!Admitted}
    or {!Brownout} grant debits the class buckets; a {!Rejected} request
    debits nothing and must leave every store untouched.  Brownout — a
    downgrade to {!Relational.Budget.Partial} execution whose results are
    honest lower bounds — is only ever offered to [Query] requests;
    a [Mutation] is either admitted whole or shed whole.

    Backpressure raises the admission bar: WAL sync lag
    ({!Durable.Log.pending_records}), degraded archive shards
    ({!Shard_store.shards_degraded}) and open breakers each add one
    pressure level, and a strict admit then requires
    [(1 + level) * cost] headroom.  A request that clears the plain cost
    but not the raised bar is browned out (queries) or shed (mutations)
    rather than silently degraded.

    {!drain} arbitrates a burst across classes with deficit round-robin:
    each round credits every backlogged class [weight * quantum] scalar
    units of deficit and serves affordable heads in class order, so a
    10:1 hot tenant queues behind its own share and cannot starve other
    classes.  An optional [serve_limit] models the server's capacity for
    the burst; requests beyond it are shed with a retry hint. *)

type principal = {
  tenant : string;
  user : string;
  session : string;  (** PR 6 provenance session id *)
  request : string;  (** PR 6 provenance request id *)
}

val principal :
  ?user:string -> ?session:string -> ?request:string -> tenant:string -> unit -> principal
(** [user] defaults to [tenant]; [session]/[request] default to [""]. *)

type quota = {
  capacity : int;  (** bucket size; 0 = this class never admits the resource *)
  refill_per_s : int;  (** tokens credited per simulated second *)
}

val quota : ?refill_per_s:int -> capacity:int -> unit -> quota
(** [refill_per_s] defaults to [capacity] (full refresh once a second). *)

type class_config = {
  weight : int;  (** fair-share weight for {!drain}; must be >= 1 *)
  rows : quota option;  (** [None] = unlimited *)
  tuples : quota option;
  ticks : quota option;
  wall_ms : quota option;
}

val class_config :
  ?weight:int -> ?rows:quota -> ?tuples:quota -> ?ticks:quota -> ?wall_ms:quota -> unit ->
  class_config
(** Omitted resources are unlimited; [weight] defaults to 1.
    @raise Invalid_argument on [weight < 1]. *)

type cost = { c_rows : int; c_tuples : int; c_ticks : int; c_wall_ms : int }

val cost : ?rows:int -> ?tuples:int -> ?ticks:int -> ?wall_ms:int -> unit -> cost
(** Omitted components are 0. *)

val cost_scalar : cost -> int
(** Service weight of a request for fair-share accounting:
    [max 1 (rows + tuples + ticks)]. *)

type kind =
  | Mutation  (** state-changing (ingestion); never browned out *)
  | Query  (** read-only (enforcement, refinement); may brown out *)

type grant = {
  g_class : string;
  g_mode : Relational.Budget.mode;  (** [Strict] for admits, [Partial] for brownouts *)
  g_limits : Relational.Budget.limits;  (** ceiling actually granted *)
}

type rejection = {
  r_tenant : string;
  r_class : string;
  r_resource : Relational.Errors.resource;  (** the binding resource *)
  retry_after_ms : int option;
      (** earliest simulated-ms delay after which the plain cost could be
          admitted; [None] when it never can (zero capacity or rate) *)
}

type decision =
  | Admitted of grant
  | Brownout of grant
  | Rejected of rejection

exception Admission_rejected of rejection
(** Typed, retryable shed signal for callers that prefer exceptions. *)

val rejection_to_string : rejection -> string

type pressure = {
  wal_backlog : int;  (** un-synced WAL records behind the stores *)
  degraded_shards : int;  (** torn or tampered archive shards *)
  open_breakers : int;  (** per-site breakers currently [Open] *)
}

val no_pressure : pressure

type class_stats = {
  cls : string;
  weight : int;
  admitted : int;  (** strict grants *)
  brownouts : int;  (** partial grants *)
  shed : int;  (** typed rejections *)
}

type t

val create : ?default_class:string -> ?now:int -> (string * class_config) list -> t
(** [create classes] registers [classes] in order.  [default_class]
    (default ["standard"]) is the class unassigned tenants fall into; if
    absent from [classes] it is created unlimited with weight 1.  [now]
    (default 0) seeds every bucket full at that clock reading. *)

val set_class : t -> string -> class_config -> unit
(** Add or replace a class.  Existing bucket levels are clamped to the
    new capacities; counters and deficit are preserved. *)

val assign : t -> tenant:string -> string -> unit
(** Map a tenant to a class.  @raise Invalid_argument on unknown class. *)

val class_of : t -> tenant:string -> string
val classes : t -> (string * class_config) list

val set_pressure : t -> pressure -> unit
val pressure : t -> pressure

val pressure_level : t -> int
(** 0–3: one level per active signal (backlog beyond 64 records, any
    degraded shard, any open breaker). *)

val admit : t -> now:int -> kind:kind -> principal -> cost -> decision
(** Refill the principal's class buckets at [now], then decide:
    strict admit needs [(1 + pressure_level) * cost] on every metered
    resource; a [Query] covering the plain cost — or at least half of it,
    with a floor of one token per requested resource — is browned out to
    the affordable grant; anything else is shed with a retry hint for the
    plain cost.  Grants debit the cost actually granted; sheds debit
    nothing. *)

val settle : t -> now:int -> principal -> declared:cost -> Relational.Errors.budget_stats -> unit
(** Charge the overrun of actual consumption beyond the declared cost
    against the admitted class (the declared part was debited at
    {!admit} time).  Buckets may go into bounded debt, delaying the
    class's next admit. *)

val drain :
  t -> now:int -> ?serve_limit:int ->
  (principal * cost * kind) list ->
  (principal * decision) list
(** Deficit-round-robin arbitration of a burst.  Results are in service
    order; every input appears exactly once.  [serve_limit] caps the
    total {!cost_scalar} the server will perform this drain — once
    exhausted, remaining requests are shed with a 1 ms retry hint.
    Per-class deficit persists across drains while a class stays
    backlogged and resets when its queue empties. *)

val stats : t -> class_stats list
(** Per-class counters, in class registration order. *)

val stats_of_class : t -> string -> class_stats option
