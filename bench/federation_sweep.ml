(* Federation durability sweep (`make federation`).

   A (sites x entries) grid over the per-site durable federation: every
   site sits on its own write-ahead op log, successful fetches are
   archived into the sharded consolidated store, and each grid point is
   graded on three axes plus a hard crash-recovery gate:

   - ingest throughput: write-ahead-logged ingestion + fsync, entries/s;
   - consolidation throughput: the full production path (fetch, archive,
     tournament-merge) over all sites, records/s;
   - crash recovery: power-cut one site's own WAL (clean loss of the
     unsynced tail), reopen it from its op log, and require every synced
     entry back, a clean verdict, and an identical consolidation after
     the recovered site is reseated — any miss fails the run;
   - incremental consolidation: over the reseated federation, with a
     fresh archive, a whole consolidation of the trail beside one that
     picks up a [batch]-entry append [~since] the previous consolidation
     (each the minimum of [reps] timings).  The suffix consolidation must
     carry exactly the batch at every point ([fetched], summed over the
     sites) and return it as an extension, and its time at the largest
     point must stay within 2x of the smallest point's.  Those two points
     have the same number of sites, 100x apart in history: a
     consolidation does some work per member, so only equal member
     counts isolate the cost of history.

   The largest grid point's per-site WALs are saved under
   _build/federation-wals/ so the offline checker can sweep them:
   `prima verify --wal _build/federation-wals`.

   Results land in BENCH_federation.json with a consolidation-throughput
   gate (>= 10k records/s at the largest point).  Timings are wall time
   on the monotonic clock.

     dune exec bench/federation_sweep.exe            -- default grid
     dune exec bench/federation_sweep.exe -- quick   -- smallest point only *)

module Site = Audit_mgmt.Site
module Fault = Audit_mgmt.Fault
module Federation = Audit_mgmt.Federation
module Shard_store = Audit_mgmt.Shard_store
module Health = Audit_mgmt.Health

let ops = [| Hdb.Audit_schema.Allow; Hdb.Audit_schema.Disallow |]
let users = [| "alice"; "bob"; "carol"; "dave" |]
let datas = [| "referral"; "gender"; "dob"; "insurance" |]
let purposes = [| "treatment"; "payment"; "research" |]
let roles = [| "nurse"; "doctor"; "billing" |]

let pick rng a = a.(Splitmix.int rng (Array.length a))

let gen_entry rng ~time =
  Hdb.Audit_schema.entry ~time ~op:(pick rng ops) ~user:(pick rng users)
    ~data:(pick rng datas) ~purpose:(pick rng purposes) ~authorized:(pick rng roles)
    ~status:Hdb.Audit_schema.Regular

(* Deterministic synthetic trail: times strictly increasing so entries
   spread across multiple (site, time-range) shards; a site's [i]-th
   entry is at time [i * 97 + site_index]. *)
let gen_entries rng ~n ~site_index =
  List.init n (fun i -> gen_entry rng ~time:((i * 97) + site_index))

(* Seconds on the monotonic wall clock, not CPU time. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time_it f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let per_sec n dt = if dt <= 0. then infinity else float_of_int n /. dt

let batch = 24
let reps = 25

type incremental = {
  full_ms : float; (* a whole consolidation of the trail *)
  suffix_ms : float; (* a consolidation [~since] the previous, after a batch *)
  fetched : int list; (* per suffix consolidation, summed over the sites *)
  extended : bool; (* every suffix consolidation returned an extension *)
}

type point = {
  nsites : int;
  per_site : int;
  total : int;
  ingest_per_sec : float;
  consolidate_per_sec : float;
  recovered : int;
  recovery_clean : bool;
  reconverged : bool;
  incremental : incremental;
}

let min_of f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (f ())
  done;
  1000. *. !best

(* The incremental column over [fed], whose [sites] hold [per_site]
   entries each: attach a fresh archive and consolidate once (whole,
   building it), then time whole consolidations of the unchanged trail,
   then appends of [batch] entries — dealt across the sites, each after
   every entry its site holds — each picked up [~since] the consolidation
   before it. *)
let run_incremental ~seed ~per_site fed sites =
  Federation.attach_archive fed (Shard_store.create ~seed:(seed + 11) ());
  let last = ref (Federation.consolidated_result fed).Federation.position in
  let consolidate ?since () =
    (* an empty minor heap, so no timing carries a collection of what the
       set-up left behind *)
    Gc.minor ();
    let r, dt = time_it (fun () -> Federation.consolidated_result ?since fed) in
    last := r.Federation.position;
    (r, dt)
  in
  let full_ms = min_of (fun () -> snd (consolidate ())) in
  let rng = Splitmix.create ~seed:(seed + 13) in
  let sites = Array.of_list sites in
  let appended = Array.make (Array.length sites) 0 in
  let fetched = ref [] and extended = ref true in
  let suffix_ms =
    min_of (fun () ->
        for k = 0 to batch - 1 do
          let i = k mod Array.length sites in
          let time = ((per_site + appended.(i)) * 97) + i in
          appended.(i) <- appended.(i) + 1;
          Site.ingest_entries sites.(i) [ gen_entry rng ~time ]
        done;
        Array.iter Site.sync_wal sites;
        let r, dt = consolidate ~since:!last () in
        fetched :=
          List.fold_left
            (fun acc (h : Health.site_health) -> acc + h.Health.fetched)
            0 r.Federation.health.Health.sites
          :: !fetched;
        extended :=
          !extended && r.Federation.extends && List.length r.Federation.entries = batch;
        dt)
  in
  { full_ms; suffix_ms; fetched = List.rev !fetched; extended = !extended }

let run_point ~nsites ~per_site =
  let seed = (nsites * 1009) + per_site in
  let rng = Splitmix.create ~seed in
  let streams = List.init nsites (fun i -> gen_entries rng ~n:per_site ~site_index:i) in
  let sites =
    List.init nsites (fun i ->
        let site = Site.create ~name:(Printf.sprintf "site-%d" (i + 1)) () in
        Site.attach_wal site (Durable.Log.create ~seed:(seed + i + 1) ());
        site)
  in
  (* write-ahead-logged ingest, fsynced at the end of each site's stream *)
  let (), t_ingest =
    time_it (fun () ->
        List.iter2
          (fun site stream ->
            Site.ingest_entries site stream;
            Site.sync_wal site)
          sites streams)
  in
  let total = nsites * per_site in
  (* the production consolidation path, archive attached *)
  let fed = Federation.create ~retry:Audit_mgmt.Retry.no_retry ~seed () in
  List.iteri
    (fun i site ->
      Federation.add_faulty_site fed
        (Fault.wrap ~config:Fault.no_faults ~seed:(seed + 100 + i) site))
    sites;
  let archive = Shard_store.create ~seed:(seed + 7) () in
  Federation.attach_archive fed archive;
  let result, t_consolidate = time_it (fun () -> Federation.consolidated_result fed) in
  if not (Health.complete result.Federation.health) then
    failwith "fault-free consolidation was not complete";
  if List.length result.Federation.entries <> total then
    failwith "consolidation lost entries";
  (* crash-recovery gate: power-cut site 1's own WAL, reopen locally *)
  let victim = List.hd sites in
  let name = Site.name victim in
  let log = Option.get (Site.wal victim) in
  Durable.Device.crash (Durable.Log.wal_device log) ~point:Durable.Device.Clean_loss;
  Durable.Device.crash (Durable.Log.snapshot_device log) ~point:Durable.Device.Clean_loss;
  let (site', recovery, undecodable), _t_recover =
    time_it (fun () ->
        Site.open_durable ~name
          (Durable.Log.of_devices
             ~wal:(Durable.Log.wal_device log)
             ~snapshot:(Durable.Log.snapshot_device log)))
  in
  let recovered = Site.length site' in
  let recovery_clean =
    Durable.Recovery.clean recovery && undecodable = 0
    && (not (Site.durably_degraded site'))
    && recovered = per_site
  in
  (* reseat the recovered site: consolidation must reconverge exactly *)
  let sites' = site' :: List.tl sites in
  let fed' = Federation.create ~retry:Audit_mgmt.Retry.no_retry ~seed () in
  List.iteri
    (fun i site ->
      Federation.add_faulty_site fed'
        (Fault.wrap ~config:Fault.no_faults ~seed:(seed + 100 + i) site))
    sites';
  let reconverged =
    recovery_clean
    &&
    let result' = Federation.consolidated_result fed' in
    Health.complete result'.Federation.health
    && List.for_all2 Hdb.Audit_schema.equal result.Federation.entries
         result'.Federation.entries
  in
  ( { nsites;
      per_site;
      total;
      ingest_per_sec = per_sec total t_ingest;
      consolidate_per_sec = per_sec total t_consolidate;
      recovered;
      recovery_clean;
      reconverged;
      incremental = run_incremental ~seed ~per_site fed' sites';
    },
    sites )

let save_wals sites =
  let dir = "_build/federation-wals" in
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun site ->
      match Site.wal site with
      | None -> ()
      | Some log ->
        let base = Filename.concat dir (Site.name site) in
        Durable.Device.save (Durable.Log.wal_device log) (base ^ ".wal");
        Durable.Device.save (Durable.Log.snapshot_device log) (base ^ ".snapshot"))
    sites;
  dir

let () =
  let quick = Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" in
  let grid =
    if quick then [ (2, 500) ]
    else [ (2, 500); (4, 1000); (8, 2000); (8, 12_500); (2, 50_000) ]
  in
  Fmt.pr "federation durability sweep: %d grid point(s)@." (List.length grid);
  Fmt.pr "%-8s %-10s %-14s %-18s %-12s %-10s %-11s %-9s %-6s@." "sites" "entries" "ingest/s"
    "consolidate/s" "recovered" "full ms" "suffix ms" "fetched" "gate";
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "{\n  \"experiment\": \"federation-durability\",\n";
  Buffer.add_string buffer
    (Printf.sprintf
       "  \"gate\": \"crash one site's WAL per point: every synced entry recovered, clean \
        verdict, consolidation reconverges; >= 10k records/s consolidation at the largest \
        point; a %d-entry append consolidated since the previous consolidation fetches \
        exactly the batch at every point, as an extension, in at most 2x the smallest \
        point's time at the largest (same site count, 100x the entries)\",\n"
       batch);
  Buffer.add_string buffer
    (Printf.sprintf
       "  \"timing\": \"monotonic wall clock; full_ms and suffix_ms are minimums of %d\",\n"
       reps);
  Buffer.add_string buffer "  \"sweep\": [\n";
  let fetched_ok p =
    p.incremental.extended && List.for_all (fun n -> n = batch) p.incremental.fetched
  in
  let points =
    List.mapi
      (fun idx (nsites, per_site) ->
        let p, sites = run_point ~nsites ~per_site in
        let i = p.incremental in
        let gate_ok = p.recovery_clean && p.reconverged && fetched_ok p in
        Fmt.pr "%-8d %-10d %-14.0f %-18.0f %-4d/%-7d %-10.3f %-11.3f %-9s %s@." p.nsites
          p.per_site p.ingest_per_sec p.consolidate_per_sec p.recovered p.per_site i.full_ms
          i.suffix_ms
          (if fetched_ok p then string_of_int batch else "MISS")
          (if gate_ok then "[ok]" else "[FAIL]");
        Buffer.add_string buffer
          (Printf.sprintf
             "    {\"sites\": %d, \"entries_per_site\": %d, \"total\": %d, \
              \"ingest_per_sec\": %.0f, \"consolidate_per_sec\": %.0f, \"recovered\": \
              %d, \"recovery_clean\": %b, \"reconverged\": %b, \"full_ms\": %.3f, \
              \"suffix_ms\": %.3f, \"batch\": %d, \"fetched\": [%s], \"extended\": %b}%s\n"
             p.nsites p.per_site p.total p.ingest_per_sec p.consolidate_per_sec
             p.recovered p.recovery_clean p.reconverged i.full_ms i.suffix_ms batch
             (String.concat ", " (List.map string_of_int i.fetched))
             i.extended
             (if idx = List.length grid - 1 then "" else ","));
        (p, sites))
      grid
  in
  let smallest, _ = List.hd points in
  let largest, largest_sites = List.nth points (List.length points - 1) in
  let dir = save_wals largest_sites in
  let throughput_ok = largest.consolidate_per_sec >= 10_000. in
  let suffix_ratio = largest.incremental.suffix_ms /. smallest.incremental.suffix_ms in
  let suffix_ok = suffix_ratio <= 2.0 in
  Buffer.add_string buffer "  ],\n";
  Buffer.add_string buffer
    (Printf.sprintf
       "  \"largest_point\": {\"sites\": %d, \"entries_per_site\": %d, \
        \"consolidate_per_sec\": %.0f, \"throughput_gate_10k\": %b, \
        \"suffix_ms_vs_smallest\": %.2f, \"suffix_gate_2x\": %b}\n}\n"
       largest.nsites largest.per_site largest.consolidate_per_sec throughput_ok suffix_ratio
       suffix_ok);
  let oc = open_out "BENCH_federation.json" in
  output_string oc (Buffer.contents buffer);
  close_out oc;
  Fmt.pr "@.suffix consolidation at the largest point: %.2fx the smallest point's (gate <= 2x)@."
    suffix_ratio;
  Fmt.pr "@.wrote BENCH_federation.json; per-site WALs saved under %s@." dir;
  Fmt.pr "try:  prima verify --wal %s@." dir;
  let all_ok =
    List.for_all (fun (p, _) -> p.recovery_clean && p.reconverged && fetched_ok p) points
    && throughput_ok && suffix_ok
  in
  if not all_ok then begin
    Fmt.pr "@.FEDERATION SWEEP FAILED.@.";
    exit 1
  end
  else
    Fmt.pr
      "All points pass: crash-local recovery lossless, consolidation reconverges, \
       throughput gate met, suffix consolidation fetches only the batch at a flat cost.@."
