(* Per-query resource governor.

   One [t] is created per top-level statement and threaded through the
   executor; every operator charges it at its boundaries:

     tick    one unit of work (a row examined, a join pair considered)
     tuple   one intermediate row materialised (scan output, join output,
             a new aggregation group, a DISTINCT set entry)
     row     one row of the top-level result

   Quotas default to unlimited, so the ungoverned path pays only an integer
   increment and compare per charge.  Two exhaustion modes:

     Strict   raise [Errors.Budget_exceeded] the moment a quota fires —
              the default, for interactive and enforcement queries;
     Partial  stop consuming input instead: operators truncate their scans
              at the quota and the result is a correct answer over a
              *prefix* of the data, flagged [truncated] so callers can
              qualify it as a lower bound (the refinement loop's
              degradation path).

   Cancellation is fixed when the budget is made: the tick that reaches
   [cancel_at] raises [Errors.Cancelled], in both modes — a user abort is
   not a degradation.  The deadline counts simulated time in ticks, making
   timeout tests deterministic; a query consuming exactly [deadline] ticks
   completes, one more tick raises. *)

type limits = {
  max_rows : int option;
  max_tuples : int option;
  deadline : int option;
  max_wall_ms : int option;
}

let unlimited = { max_rows = None; max_tuples = None; deadline = None; max_wall_ms = None }

let limits ?rows ?tuples ?ticks ?wall_ms () =
  { max_rows = rows; max_tuples = tuples; deadline = ticks; max_wall_ms = wall_ms }

(* Pointwise tightest-wins combination: [None] is unlimited, so the
   other side's quota prevails; two quotas take the minimum.  Used to
   compose an admission grant with a standing query-limits policy. *)
let limits_min a b =
  let m x y =
    match (x, y) with
    | None, l | l, None -> l
    | Some x, Some y -> Some (min x y)
  in
  { max_rows = m a.max_rows b.max_rows;
    max_tuples = m a.max_tuples b.max_tuples;
    deadline = m a.deadline b.deadline;
    max_wall_ms = m a.max_wall_ms b.max_wall_ms;
  }

type mode =
  | Strict
  | Partial

type t = {
  mode : mode;
  max_rows : int;
  max_tuples : int;
  deadline : int;
  wall_limit_ms : float;  (* [infinity] when no wall deadline is set *)
  now : unit -> float;  (* milliseconds; injectable for determinism *)
  start_ms : float;  (* [now] at creation, 0. when no wall deadline *)
  cancel_at : int;  (* abort when ticks reach this; [max_int] = never *)
  mutable rows_out : int;
  mutable tuples : int;
  mutable ticks : int;
  mutable exhausted : Errors.resource option;  (* first quota that fired *)
}

let of_option = function Some n -> max n 0 | None -> max_int

let wall_clock_ms () = Unix.gettimeofday () *. 1000.

let create ?(mode = Strict) ?(cancel_at = max_int) ?now (limits : limits) =
  let now = match now with Some f -> f | None -> wall_clock_ms in
  let wall_limit_ms, start_ms =
    match limits.max_wall_ms with
    | None -> (infinity, 0.)
    | Some ms -> (float_of_int (max ms 0), now ())
  in
  { mode;
    max_rows = of_option limits.max_rows;
    max_tuples = of_option limits.max_tuples;
    deadline = of_option limits.deadline;
    wall_limit_ms;
    now;
    start_ms;
    cancel_at;
    rows_out = 0;
    tuples = 0;
    ticks = 0;
    exhausted = None;
  }

let default () = create unlimited

let mode t = t.mode

let stats t : Errors.budget_stats =
  { Errors.rows_out = t.rows_out; tuples = t.tuples; ticks = t.ticks }

let exhausted t = t.exhausted

(* The result was computed from a prefix of the input (Partial mode only). *)
let truncated t = t.mode = Partial && t.exhausted <> None

let trip t resource =
  if t.exhausted = None then t.exhausted <- Some resource;
  match t.mode with
  | Strict -> raise (Errors.Budget_exceeded (resource, stats t))
  | Partial -> false

(* Charge one unit of work.  [true] to continue; [false] (Partial only)
   when the deadline has passed and the operator should stop consuming. *)
let step t =
  t.ticks <- t.ticks + 1;
  if t.ticks >= t.cancel_at then raise (Errors.Cancelled (stats t));
  if t.ticks > t.deadline then trip t Errors.Time
  else if t.wall_limit_ms < infinity && t.now () -. t.start_ms > t.wall_limit_ms then
    trip t Errors.Time
  else true

(* Charge one unit of work plus one materialised tuple. *)
let admit t =
  if not (step t) then false
  else begin
    t.tuples <- t.tuples + 1;
    if t.tuples > t.max_tuples then trip t Errors.Tuples else true
  end

(* Charge a whole row list as materialised tuples (a scan, a derived-table
   result).  Strict: charges every element and returns the list unchanged —
   physically the same list, so a budget that never fires costs nothing
   beyond the counter.  Partial: returns the admitted prefix. *)
let admit_list t rows =
  match t.mode with
  | Strict ->
    List.iter (fun _ -> ignore (admit t)) rows;
    rows
  | Partial ->
    let rec go acc = function
      | [] -> List.rev acc
      | r :: rest -> if admit t then go (r :: acc) rest else List.rev acc
    in
    go [] rows

(* Charge the top-level result rows against the output quota.  Strict:
   raise when over; Partial: truncate the result to the quota. *)
let charge_rows t rows =
  match t.mode with
  | Strict ->
    List.iter
      (fun _ ->
        t.rows_out <- t.rows_out + 1;
        if t.rows_out > t.max_rows then ignore (trip t Errors.Rows))
      rows;
    rows
  | Partial ->
    let rec go acc = function
      | [] -> List.rev acc
      | r :: rest ->
        t.rows_out <- t.rows_out + 1;
        if t.rows_out > t.max_rows then begin
          ignore (trip t Errors.Rows);
          List.rev acc
        end
        else go (r :: acc) rest
    in
    go [] rows
