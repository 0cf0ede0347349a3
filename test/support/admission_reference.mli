(** {!Audit_mgmt.Admission} as it was when a budget class could meter four
    resources (rows, tuples, ticks, wall milliseconds), each with its own
    bucket, partial grant and retry hint.  Every caller configured a rows
    quota only, so the controller now meters rows alone; this copy is the
    oracle [test_admission] drives beside it through random rows-only
    programs, requiring equal decisions and counters after every step. *)

type principal = { tenant : string; user : string; session : string; request : string }

val principal :
  ?user:string -> ?session:string -> ?request:string -> tenant:string -> unit -> principal

type quota = { capacity : int; refill_per_s : int }

val quota : ?refill_per_s:int -> capacity:int -> unit -> quota

type class_config = {
  weight : int;
  rows : quota option;
  tuples : quota option;
  ticks : quota option;
  wall_ms : quota option;
}

val class_config :
  ?weight:int -> ?rows:quota -> ?tuples:quota -> ?ticks:quota -> ?wall_ms:quota -> unit ->
  class_config

type cost = { c_rows : int; c_tuples : int; c_ticks : int; c_wall_ms : int }

val cost : ?rows:int -> ?tuples:int -> ?ticks:int -> ?wall_ms:int -> unit -> cost

type kind = Mutation | Query

type grant = {
  g_class : string;
  g_mode : Relational.Budget.mode;
  g_limits : Relational.Budget.limits;
}

type rejection = {
  r_tenant : string;
  r_class : string;
  r_resource : Relational.Errors.resource;
  retry_after_ms : int option;
}

type decision = Admitted of grant | Brownout of grant | Rejected of rejection

val rejection_to_string : rejection -> string

type pressure = { wal_backlog : int; degraded_shards : int; open_breakers : int }

type class_stats = { cls : string; weight : int; admitted : int; brownouts : int; shed : int }

type t

val create : ?default_class:string -> ?now:int -> (string * class_config) list -> t
val set_class : t -> string -> class_config -> unit
val assign : t -> tenant:string -> string -> unit
val classes : t -> (string * class_config) list
val set_pressure : t -> pressure -> unit
val pressure : t -> pressure
val pressure_level : t -> int
val admit : t -> now:int -> kind:kind -> principal -> cost -> decision
val settle : t -> now:int -> principal -> declared:cost -> Relational.Errors.budget_stats -> unit

val drain :
  t -> now:int -> ?serve_limit:int -> (principal * cost * kind) list -> (principal * decision) list

val stats : t -> class_stats list
val stats_of_class : t -> string -> class_stats option
