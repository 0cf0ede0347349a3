(* The host's speed while a run measures.

   A host shared with other tenants runs unevenly: the same run of the
   same seed can take a third longer a few minutes later, and the
   workloads' memory-bound stages (list walks, hash tables, the collector)
   slow most.
   A fixed reference kernel, timed before, during and after each episode,
   reads the host's speed; the episode's times are scaled by it, so that
   runs made minutes apart compare the program and not the neighbours.

   The kernel chases pointers through a 16 MB ring, always from the same
   start, so it reads the latency of the caches it shares with the other
   tenants and of memory behind them: of the kernels tried, the one whose
   timings tracked the workloads' drift best.  The ring is held outside the
   OCaml heap and the kernel allocates nothing, so neither the collector
   nor anything a change to the program does can move it. *)

let size = 1 lsl 21

(* A random single cycle through all [size] slots (Sattolo's algorithm):
   slot [i] holds the slot visited after [i]. *)
let ring =
  let next = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
  for i = 0 to size - 1 do
    next.{i} <- i
  done;
  let rng = Splitmix.create ~seed:1 in
  for i = size - 1 downto 1 do
    let j = Splitmix.int rng i in
    let t = next.{i} in
    next.{i} <- next.{j};
    next.{j} <- t
  done;
  next

let kernel () =
  let j = ref 0 in
  for _ = 1 to 50_000 do
    j := Bigarray.Array1.unsafe_get ring !j
  done;
  ignore (Sys.opaque_identity !j)

(* The kernel's time on the 2-core host the benchmark was tuned on, when
   quiet, in seconds: host speed 1.0.  Only ratios between runs matter; the constant keeps scaled
   times close to the raw ones. *)
let nominal_s = 0.0085

let pending = ref []

(* Time the kernel a few times now.  Untimed points of an episode call this,
   so the readings bracket and interleave its timed work. *)
let sample () =
  for _ = 1 to 3 do
    let (), t = Trace.timed kernel in
    pending := (t.Trace.ended, t.Trace.seconds) :: !pending
  done

(* Every reading so far, oldest first, as (taken at, kernel seconds). *)
let readings () = Array.of_list (List.rev !pending)

(* Host slowness over some kernel timings: their median over [nominal_s]
   (above 1.0 when the host is slower than quiet). *)
let slowness timings = Stats.median timings /. nominal_s

(* The slowness over [started, ended]: the readings taken in between plus
   the three on either side. *)
let slowness_between readings ~started ~ended =
  let n = Array.length readings in
  (* First index whose reading was taken after [t]. *)
  let after t =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Int64.compare (fst readings.(mid)) t > 0 then go lo mid else go (mid + 1) hi
    in
    go 0 n
  in
  let from = max 0 (after started - 3) and upto = min n (after ended + 3) in
  slowness (List.map snd (Array.to_list (Array.sub readings from (upto - from))))
