(* [Audit_mgmt.Admission] as it stood when every budget class kept token
   buckets over the query governor's four resources (rows, tuples, ticks,
   wall milliseconds), kept verbatim below as the oracle for the rows-only
   controller that replaced it: driven through the same program with
   rows-only classes, both must decide, settle, drain and count alike. *)

(* Multi-tenant admission control.

   Budget classes hold token buckets over the governor's four resources,
   refilled on the simulated millisecond clock.  The refill boundary is
   CLOSED: a token owed at exactly-now is granted at that tick (integer
   credit = (carry + elapsed * rate) / 1000 reaches 1 exactly when the
   owed millisecond arrives), mirroring Retry.deadline_reached's [>=].

   Decisions never partially apply: grants debit the granted cost, sheds
   debit nothing.  Brownout (Partial-mode grant, results become honest
   lower bounds) is only offered to Query requests; Mutations are
   admitted whole or shed whole. *)

type principal = { tenant : string; user : string; session : string; request : string }

let principal ?user ?(session = "") ?(request = "") ~tenant () =
  let user = match user with Some u -> u | None -> tenant in
  { tenant; user; session; request }

type quota = { capacity : int; refill_per_s : int }

let quota ?refill_per_s ~capacity () =
  if capacity < 0 then invalid_arg "Admission.quota: negative capacity";
  let refill_per_s = match refill_per_s with Some r -> r | None -> capacity in
  if refill_per_s < 0 then invalid_arg "Admission.quota: negative refill";
  { capacity; refill_per_s }

type class_config = {
  weight : int;
  rows : quota option;
  tuples : quota option;
  ticks : quota option;
  wall_ms : quota option;
}

let class_config ?(weight = 1) ?rows ?tuples ?ticks ?wall_ms () =
  if weight < 1 then invalid_arg "Admission.class_config: weight < 1";
  { weight; rows; tuples; ticks; wall_ms }

type cost = { c_rows : int; c_tuples : int; c_ticks : int; c_wall_ms : int }

let cost ?(rows = 0) ?(tuples = 0) ?(ticks = 0) ?(wall_ms = 0) () =
  if rows < 0 || tuples < 0 || ticks < 0 || wall_ms < 0 then
    invalid_arg "Admission.cost: negative component";
  { c_rows = rows; c_tuples = tuples; c_ticks = ticks; c_wall_ms = wall_ms }

let cost_scalar c = max 1 (c.c_rows + c.c_tuples + c.c_ticks)

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

let rejection_to_string r =
  Printf.sprintf "admission rejected: tenant %s (class %s) over %s budget%s" r.r_tenant
    r.r_class
    (match r.r_resource with
    | Relational.Errors.Rows -> "row"
    | Relational.Errors.Tuples -> "tuple"
    | Relational.Errors.Time -> "time")
    (match r.retry_after_ms with
    | Some ms -> Printf.sprintf ", retry after %dms" ms
    | None -> ", not retryable")

type pressure = { wal_backlog : int; degraded_shards : int; open_breakers : int }

let no_pressure = { wal_backlog = 0; degraded_shards = 0; open_breakers = 0 }

(* Un-synced WAL records tolerated before the backlog counts as a
   pressure signal. *)
let wal_backlog_threshold = 64

type class_stats = {
  cls : string;
  weight : int;
  admitted : int;
  brownouts : int;
  shed : int;
}

(* The four metered resources, in binding-report order. *)
type res = R_rows | R_tuples | R_ticks | R_wall

let all_res = [ R_rows; R_tuples; R_ticks; R_wall ]

let errors_resource = function
  | R_rows -> Relational.Errors.Rows
  | R_tuples -> Relational.Errors.Tuples
  | R_ticks | R_wall -> Relational.Errors.Time

let cost_of r c =
  match r with
  | R_rows -> c.c_rows
  | R_tuples -> c.c_tuples
  | R_ticks -> c.c_ticks
  | R_wall -> c.c_wall_ms

let quota_of r (cfg : class_config) =
  match r with
  | R_rows -> cfg.rows
  | R_tuples -> cfg.tuples
  | R_ticks -> cfg.ticks
  | R_wall -> cfg.wall_ms

type bucket = {
  q : quota;
  mutable tokens : int; (* may go negative: settlement debt *)
  mutable carry : int; (* refill numerator remainder, < 1000 *)
  mutable last : int; (* clock reading of the last refill *)
}

type cls = {
  name : string;
  mutable config : class_config;
  mutable buckets : (res * bucket) list; (* only metered resources *)
  mutable deficit : int; (* DRR deficit, in cost_scalar units *)
  mutable n_admitted : int;
  mutable n_brownouts : int;
  mutable n_shed : int;
}

type t = {
  mutable order : cls list; (* registration order *)
  by_name : (string, cls) Hashtbl.t;
  tenants : (string, string) Hashtbl.t;
  default_class : string;
  mutable pressure : pressure;
}

let buckets_of config ~now =
  List.filter_map
    (fun r ->
      match quota_of r config with
      | None -> None
      | Some q -> Some (r, { q; tokens = q.capacity; carry = 0; last = now }))
    all_res

let make_class ~now name config =
  { name;
    config;
    buckets = buckets_of config ~now;
    deficit = 0;
    n_admitted = 0;
    n_brownouts = 0;
    n_shed = 0;
  }

let create ?(default_class = "standard") ?(now = 0) classes =
  let t =
    { order = [];
      by_name = Hashtbl.create 8;
      tenants = Hashtbl.create 16;
      default_class;
      pressure = no_pressure;
    }
  in
  let add name config =
    if Hashtbl.mem t.by_name name then invalid_arg "Admission.create: duplicate class";
    let c = make_class ~now name config in
    Hashtbl.replace t.by_name name c;
    t.order <- t.order @ [ c ]
  in
  List.iter (fun (name, config) -> add name config) classes;
  if not (Hashtbl.mem t.by_name default_class) then add default_class (class_config ());
  t

let set_class t name config =
  match Hashtbl.find_opt t.by_name name with
  | None ->
      let c = make_class ~now:0 name config in
      Hashtbl.replace t.by_name name c;
      t.order <- t.order @ [ c ]
  | Some c ->
      (* Preserve bucket levels where the resource stays metered, clamped
         to the new capacity; counters and deficit survive. *)
      let old = c.buckets in
      c.config <- config;
      c.buckets <-
        List.filter_map
          (fun r ->
            match quota_of r config with
            | None -> None
            | Some q ->
                let b =
                  match List.assoc_opt r old with
                  | Some ob ->
                      { q; tokens = min q.capacity ob.tokens; carry = ob.carry; last = ob.last }
                  | None -> { q; tokens = q.capacity; carry = 0; last = 0 }
                in
                Some (r, b))
          all_res

let assign t ~tenant name =
  if not (Hashtbl.mem t.by_name name) then
    invalid_arg (Printf.sprintf "Admission.assign: unknown class %s" name);
  Hashtbl.replace t.tenants tenant name

let class_of t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with Some c -> c | None -> t.default_class

let classes t = List.map (fun c -> (c.name, c.config)) t.order

let cls_of_tenant t tenant =
  match Hashtbl.find_opt t.by_name (class_of t ~tenant) with
  | Some c -> c
  | None -> assert false (* default class always registered *)

let set_pressure t p = t.pressure <- p
let pressure t = t.pressure

let pressure_level t =
  (if t.pressure.wal_backlog >= wal_backlog_threshold then 1 else 0)
  + (if t.pressure.degraded_shards > 0 then 1 else 0)
  + if t.pressure.open_breakers > 0 then 1 else 0

(* Closed-boundary refill: the credit owed at exactly [now] is granted at
   [now].  The carry resets when the bucket tops out, so a full bucket
   does not bank fractional credit. *)
let refill (b : bucket) ~now =
  if now > b.last then begin
    let elapsed = now - b.last in
    b.last <- now;
    let num = b.carry + (elapsed * b.q.refill_per_s) in
    b.tokens <- b.tokens + (num / 1000);
    b.carry <- num mod 1000;
    if b.tokens >= b.q.capacity then begin
      b.tokens <- b.q.capacity;
      b.carry <- 0
    end
  end

let refill_all c ~now = List.iter (fun (_, b) -> refill b ~now) c.buckets

(* Milliseconds until the bucket can cover [need] tokens; None when it
   never can (capacity or rate too small). *)
let ms_until (b : bucket) ~need =
  if b.tokens >= need then Some 0
  else if need > b.q.capacity || b.q.refill_per_s <= 0 then None
  else
    let missing = need - b.tokens in
    let num = (missing * 1000) - b.carry in
    Some ((num + b.q.refill_per_s - 1) / b.q.refill_per_s)

let debit c (g : cost) =
  List.iter (fun (r, b) -> b.tokens <- b.tokens - cost_of r g) c.buckets

let limits_of_grant (g : cost) : Relational.Budget.limits =
  let opt n = if n > 0 then Some n else None in
  { Relational.Budget.max_rows = opt g.c_rows;
    max_tuples = opt g.c_tuples;
    deadline = opt g.c_ticks;
    max_wall_ms = opt g.c_wall_ms;
  }

let ceil_half n = (n + 1) / 2

let admit t ~now ~kind p (c : cost) =
  let cl = cls_of_tenant t p.tenant in
  refill_all cl ~now;
  let level = pressure_level t in
  let covers mult =
    List.for_all
      (fun (r, b) ->
        let need = cost_of r c in
        need = 0 || b.tokens >= need * mult)
      cl.buckets
  in
  let strict_ok = covers (1 + level) in
  (* At level 0 this equals [strict_ok], so the full-grant brownout
     below can only fire when the pressure bar alone failed. *)
  let plain_ok = covers 1 in
  if strict_ok then begin
    debit cl c;
    cl.n_admitted <- cl.n_admitted + 1;
    Admitted
      { g_class = cl.name; g_mode = Relational.Budget.Strict; g_limits = limits_of_grant c }
  end
  else if kind = Query && plain_ok then begin
    (* Affordable at face value; only the pressure bar failed.  Run it,
       but in Partial mode so the result is an honest lower bound. *)
    debit cl c;
    cl.n_brownouts <- cl.n_brownouts + 1;
    Brownout
      { g_class = cl.name; g_mode = Relational.Budget.Partial; g_limits = limits_of_grant c }
  end
  else if
    kind = Query
    && List.for_all
         (fun (r, b) ->
           let need = cost_of r c in
           need = 0 || b.tokens >= ceil_half need)
         cl.buckets
  then begin
    (* The class can cover at least half of every requested resource:
       brown out to the affordable grant instead of shedding. *)
    let granted =
      { c_rows = c.c_rows;
        c_tuples = c.c_tuples;
        c_ticks = c.c_ticks;
        c_wall_ms = c.c_wall_ms;
      }
    in
    let granted =
      List.fold_left
        (fun (g : cost) (r, b) ->
          let need = cost_of r c in
          if need = 0 || b.tokens >= need then g
          else
            match r with
            | R_rows -> { g with c_rows = b.tokens }
            | R_tuples -> { g with c_tuples = b.tokens }
            | R_ticks -> { g with c_ticks = b.tokens }
            | R_wall -> { g with c_wall_ms = b.tokens })
        granted cl.buckets
    in
    debit cl granted;
    cl.n_brownouts <- cl.n_brownouts + 1;
    Brownout
      { g_class = cl.name;
        g_mode = Relational.Budget.Partial;
        g_limits = limits_of_grant granted;
      }
  end
  else begin
    (* Shed.  The hint targets the PLAIN cost: when only the pressure bar
       failed (a mutation under pressure), the plain cost is affordable
       now, so the earliest retry is the next tick — pressure is
       exogenous and may have cleared by then. *)
    let binding =
      List.find_opt (fun (r, b) -> b.tokens < cost_of r c) cl.buckets
    in
    let r_resource, retry_after_ms =
      match binding with
      | None -> (Relational.Errors.Time, Some 1)
      | Some (r, b) -> (errors_resource r, ms_until b ~need:(cost_of r c))
    in
    let retry_after_ms =
      (* Every binding resource must clear, not just the first. *)
      match retry_after_ms with
      | None -> None
      | Some ms ->
          List.fold_left
            (fun acc (r, b) ->
              match acc with
              | None -> None
              | Some best -> (
                  let need = cost_of r c in
                  if need = 0 || b.tokens >= need then acc
                  else
                    match ms_until b ~need with
                    | None -> None
                    | Some m -> Some (max best m)))
            (Some (max ms 1)) cl.buckets
    in
    cl.n_shed <- cl.n_shed + 1;
    Rejected { r_tenant = p.tenant; r_class = cl.name; r_resource; retry_after_ms }
  end

let settle t ~now p ~declared (stats : Relational.Errors.budget_stats) =
  let cl = cls_of_tenant t p.tenant in
  refill_all cl ~now;
  let extra r =
    let actual =
      match r with
      | R_rows -> stats.Relational.Errors.rows_out
      | R_tuples -> stats.Relational.Errors.tuples
      | R_ticks -> stats.Relational.Errors.ticks
      | R_wall -> 0
    in
    max 0 (actual - cost_of r declared)
  in
  List.iter
    (fun (r, b) ->
      let e = extra r in
      if e > 0 then
        (* Bounded debt: settlement can push the bucket negative, which
           delays the class's next admit, but never without bound. *)
        b.tokens <- max (-(4 * max 1 b.q.capacity)) (b.tokens - e))
    cl.buckets

(* Deficit round-robin over per-class FIFO queues.  [quantum] is the
   scalar credit a weight-1 class earns per round. *)
let drr_quantum = 8

let drain t ~now ?serve_limit reqs =
  let queues = Hashtbl.create 8 in
  List.iter
    (fun ((p, _, _) as req) ->
      let cl = cls_of_tenant t p.tenant in
      let q =
        match Hashtbl.find_opt queues cl.name with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace queues cl.name q;
            q
      in
      Queue.add req q)
    reqs;
  let order = List.filter (fun c -> Hashtbl.mem queues c.name) t.order in
  let remaining = ref (match serve_limit with None -> max_int | Some s -> max 0 s) in
  let out = ref [] in
  let emit p d = out := (p, d) :: !out in
  let shed_overload cl (p : principal) =
    cl.n_shed <- cl.n_shed + 1;
    emit p
      (Rejected
         { r_tenant = p.tenant;
           r_class = cl.name;
           r_resource = Relational.Errors.Time;
           retry_after_ms = Some 1;
         })
  in
  let starved = Hashtbl.create 8 in
  let pending () =
    List.exists (fun cl -> not (Queue.is_empty (Hashtbl.find queues cl.name))) order
  in
  while pending () do
    if !remaining <= 0 then
      (* Server capacity exhausted: shed everything left, keeping the
         deficits — these classes are still backlogged. *)
      List.iter
        (fun cl ->
          let q = Hashtbl.find queues cl.name in
          while not (Queue.is_empty q) do
            let p, _, _ = Queue.pop q in
            Hashtbl.replace starved cl.name true;
            shed_overload cl p
          done)
        order
    else
      List.iter
        (fun cl ->
          let q = Hashtbl.find queues cl.name in
          if not (Queue.is_empty q) then begin
            cl.deficit <- cl.deficit + (cl.config.weight * drr_quantum);
            let continue = ref true in
            while !continue && not (Queue.is_empty q) do
              let _, c, _ = Queue.peek q in
              let scalar = cost_scalar c in
              if scalar > cl.deficit then continue := false
              else begin
                let p, c, k = Queue.pop q in
                if scalar > !remaining then begin
                  Hashtbl.replace starved cl.name true;
                  shed_overload cl p
                end
                else
                  let d = admit t ~now ~kind:k p c in
                  (match d with
                  | Admitted _ | Brownout _ ->
                      cl.deficit <- cl.deficit - scalar;
                      remaining := !remaining - scalar
                  | Rejected _ -> ());
                  emit p d
              end
            done;
            if Queue.is_empty q && not (Hashtbl.mem starved cl.name) then cl.deficit <- 0
          end)
        order
  done;
  List.rev !out

let stats_of_cls c =
  { cls = c.name;
    weight = c.config.weight;
    admitted = c.n_admitted;
    brownouts = c.n_brownouts;
    shed = c.n_shed;
  }

let stats t = List.map stats_of_cls t.order

let stats_of_class t name =
  Option.map stats_of_cls (Hashtbl.find_opt t.by_name name)
