(* Spans recorded from outside the program, around calls into each layer's
   public functions.

   A request (one ingest batch, coverage reading, refinement or clinician
   query) is a parent span with its own request id; the stages replayed
   under it are child spans.  Every span carries the words the OCaml
   runtime allocated between its boundaries plus the layer's own counts
   (entries merged, practice rows, tuples, ...).  Spans are held in memory
   and written out once, when the run ends. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* One timing, with the monotonic clock readings it lies between: a sum of
   timed pieces (an episode's wall time) spans more than its length. *)
type timing = {
  started : int64;
  ended : int64;
  seconds : float;
}

let timed f =
  let started = now_ns () in
  let r = f () in
  let ended = now_ns () in
  (r, { started; ended; seconds = seconds_between started ended })

(* Words allocated so far: the minor heap's precise counter plus the words
   allocated directly in the major heap ([Gc.quick_stat]'s own minor count
   only advances at minor collections). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

type span = {
  id : int;
  parent : int;  (** -1 for a request span *)
  request : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  alloc_words : float;
  counts : (string * float) list;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable next_request : int;
  mutable stack : (int * int) list;  (** open spans: (id, request) *)
}

let create () = { spans = []; next_id = 0; next_request = 0; stack = [] }

let duration s = seconds_between s.start_ns s.stop_ns

let record t ~name ~counts f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, request =
    match t.stack with
    | (parent, request) :: _ -> (parent, request)
    | [] ->
      let request = t.next_request in
      t.next_request <- request + 1;
      (-1, request)
  in
  t.stack <- (id, request) :: t.stack;
  let words0 = allocated_words () in
  let result, timing = timed f in
  let alloc_words = allocated_words () -. words0 in
  t.stack <- List.tl t.stack;
  t.spans <-
    { id;
      parent;
      request;
      name;
      start_ns = timing.started;
      stop_ns = timing.ended;
      alloc_words;
      counts = counts result;
    }
    :: t.spans;
  (result, timing)

(* A span around [f ()]; outside any open span it starts a new request.
   [counts] reads the layer's counts off the result. *)
let span ?(counts = fun _ -> []) t name f = fst (record t ~name ~counts f)

(* Like [span], also returning the span's timing. *)
let span_timed ?(counts = fun _ -> []) t name f = record t ~name ~counts f

let spans t = List.rev t.spans

(* Self time: a span's duration minus the part its children cover.  Spans
   of one thread never overlap, so the children's durations just add. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    t.spans;
  fun s -> duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.

let write t ~path =
  let self = self_times t in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"request\": %d, \"name\": %S, \"start_ns\": %Ld, \
         \"end_ns\": %Ld, \"self_ms\": %.6f, \"alloc_words\": %.0f%s}\n"
        s.id s.parent s.request s.name s.start_ns s.stop_ns
        (1000. *. self s)
        s.alloc_words
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ", %S: %.17g" k v) s.counts)))
    (spans t);
  close_out oc
