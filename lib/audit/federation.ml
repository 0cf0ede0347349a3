(* The PRIMA Audit Management component: a consolidated virtual view over
   every site's audit trail (the role DB2 Information Integrator plays in
   the paper's first instantiation).  Entries are merged by timestamp with
   a k-way min-heap merge; per-site logs are append-ordered so each is
   already sorted, and out-of-order sites are sorted defensively.

   Two consolidation paths coexist:

   - [consolidated] is the trusted direct view — it reads every site's
     store in-process and cannot fail; it is also the fault-free baseline
     the fault-matrix suite compares against;
   - [consolidated_result] is the production path: each site is fetched
     through its fault wrapper (if any) under retry/backoff, gated by a
     per-site circuit breaker, with corrupted records quarantined — and the
     result carries a health report accounting for 100% of input records
     (delivered + quarantined + stranded at skipped sites) plus the
     completeness fraction downstream coverage must surface. *)

type member = {
  mutable msite : Site.t; (* mutable so a crash-recovered site can be reseated *)
  mutable fault : Fault.t option; (* None = perfectly reliable transport *)
  breaker : Breaker.t;
}

type t = {
  mutable members : member list;
  clock : int ref; (* simulated ms; advanced by retries and fetch latency *)
  retry : Retry.policy;
  prng : Splitmix.t; (* jitter stream for retry backoff *)
  transit : Quarantine.t; (* records corrupted in transit, latest fetch *)
  (* The durable consolidated archive (optional): successful fetches are
     archived per (site, time-range) shard, and a site whose live fetch
     fails is served stale from its shards instead of being skipped. *)
  mutable archive : Shard_store.t option;
  (* Tenant admission controller (optional), shared with every member
     site's ingestion gate. *)
  mutable admission : Admission.t option;
}

let create ?(retry = Retry.default) ?(seed = 0) () =
  { members = [];
    clock = ref 0;
    retry;
    prng = Splitmix.create ~seed;
    transit = Quarantine.create ();
    archive = None;
    admission = None;
  }

let member ?fault ?breaker site =
  { msite = site; fault; breaker = Breaker.create ?config:breaker () }

let add_member t m =
  t.members <- t.members @ [ m ];
  Site.set_admission m.msite t.admission

let add_site t site = add_member t (member site)

let add_faulty_site ?breaker t fault = add_member t (member ~fault ?breaker (Fault.site fault))

let of_sites sites =
  let t = create () in
  List.iter (add_site t) sites;
  t

let sites t = List.map (fun m -> m.msite) t.members

let site t name =
  List.find_opt (fun s -> String.equal (Site.name s) name) (sites t)

let find_member t name =
  List.find_opt (fun m -> String.equal (Site.name m.msite) name) t.members

let fault t name = Option.bind (find_member t name) (fun m -> m.fault)

let breaker t name = Option.map (fun m -> m.breaker) (find_member t name)

let set_fault t name fault =
  match find_member t name with
  | Some m -> m.fault <- fault
  | None -> invalid_arg (Printf.sprintf "Federation.set_fault: unknown site %s" name)

(* Swap in a replacement site — e.g. one rebuilt from its WAL after a
   crash — keeping the member's breaker history and fault schedule. *)
let reseat_site t name site =
  match find_member t name with
  | Some m ->
    m.msite <- site;
    Site.set_admission site t.admission;
    Option.iter (fun f -> Fault.reseat f site) m.fault
  | None -> invalid_arg (Printf.sprintf "Federation.reseat_site: unknown site %s" name)

let attach_archive t archive = t.archive <- Some archive

let archive t = t.archive

(* {2 Tenant admission} — one controller shared by every member site's
   ingestion gate, its backpressure fed from the federation's own health
   signals. *)

let set_admission t admission =
  t.admission <- admission;
  List.iter (fun m -> Site.set_admission m.msite admission) t.members

let admission t = t.admission

(* The live overload signals backpressure is derived from: un-synced
   site-WAL records, degraded archive shards, and open breakers. *)
let pressure_signals t =
  let wal_backlog =
    List.fold_left
      (fun acc m ->
        match Site.wal m.msite with
        | None -> acc
        | Some log -> acc + Durable.Log.pending_records log)
      0 t.members
  in
  let degraded_shards =
    match t.archive with None -> 0 | Some a -> Shard_store.shards_degraded a
  in
  let open_breakers =
    List.length
      (List.filter (fun m -> Breaker.state m.breaker = Breaker.Open) t.members)
  in
  { Admission.wal_backlog; degraded_shards; open_breakers }

(* Re-derive backpressure and raise/lower the admission bar; a no-op
   without a controller. *)
let refresh_pressure t =
  Option.iter (fun adm -> Admission.set_pressure adm (pressure_signals t)) t.admission

let class_health_rows t =
  match t.admission with
  | None -> []
  | Some adm ->
      List.map
        (fun (s : Admission.class_stats) ->
          { Health.cls = s.Admission.cls;
            weight = s.Admission.weight;
            admitted = s.Admission.admitted;
            brownouts = s.Admission.brownouts;
            shed = s.Admission.shed;
          })
        (Admission.stats adm)

let heal_all t =
  List.iter (fun m -> Option.iter Fault.heal m.fault) t.members

let clock t = !(t.clock)

let advance_clock t ms = t.clock := !(t.clock) + ms

let transit_quarantine t = t.transit

let total_entries t =
  List.fold_left (fun acc site -> acc + Site.length site) 0 (sites t)

let is_sorted entries =
  let rec go = function
    | a :: (b :: _ as rest) ->
      a.Hdb.Audit_schema.time <= b.Hdb.Audit_schema.time && go rest
    | [ _ ] | [] -> true
  in
  go entries

let sort_defensively entries =
  if is_sorted entries then entries
  else
    List.stable_sort
      (fun a b -> Int.compare a.Hdb.Audit_schema.time b.Hdb.Audit_schema.time)
      entries

let sorted_entries site = sort_defensively (Site.entries site)

(* Merge per-site streams (already sorted) into one time-ordered list —
   a tournament merge keyed (time, site index): ties resolve in site
   order and within a site records keep append order, so the merge is
   stable and deterministic (pinned by the QCheck parity test against a
   global stable sort). *)
let merge_streams = Tournament.merge_entries

(* The trusted direct view: reads every store in-process, never fails.
   Also the fault-free baseline for the fault-matrix suite. *)
let consolidated t : Hdb.Audit_schema.entry list =
  merge_streams (List.map sorted_entries (sites t))

(* One site through its fault wrapper under retry; [None] fault is a
   perfect in-process transport. *)
let fetch_member t m : (Fault.fetched * int, string) result =
  match m.fault with
  | None ->
    Ok ({ Fault.delivered = Site.entries m.msite; corrupted = [] }, 0)
  | Some f ->
    let result, stats =
      Retry.run ~policy:t.retry ~prng:t.prng ~clock:t.clock (fun ~attempt:_ ->
          Fault.fetch f ~clock:t.clock)
    in
    (match result with
    | Ok fetched -> Ok (fetched, stats.Retry.attempts - 1)
    | Error failure -> Error (Fault.failure_to_string failure))

type result_t = {
  entries : Hdb.Audit_schema.entry list;
  health : Health.t;
}

(* The production path: breaker-gated, retried fetches; corrupted records
   quarantined; a health report accounting for every input record.

   With an archive attached, a successful fetch is archived into the
   site's shards, and a site whose live fetch fails (or whose breaker is
   open) is served {e stale} from its servable shards: the archived
   records count as delivered, the lag as stranded, so completeness still
   measures exactly what the merge contains.  Durability state — a
   pending site-WAL replay, the archive's shard tally — rides on the
   health report so downstream coverage stays a lower bound while
   anything durable is damaged. *)
let consolidated_result t : result_t =
  (* Consolidation observes the freshest overload signals, so the
     admission bar tracks the federation's actual health. *)
  refresh_pressure t;
  let streams_rev, healths_rev =
    List.fold_left
      (fun (streams, healths) m ->
        let name = Site.name m.msite in
        let store_len = Site.length m.msite in
        let ingest_q = Site.quarantined_count m.msite in
        let health ~status ~entries ~quarantined ~skipped_entries =
          Health.make ~site_degraded:(Site.durably_degraded m.msite) ~site:name ~status
            ~entries ~quarantined ~skipped_entries
            ~breaker:(Breaker.state m.breaker) ~trips:(Breaker.trips m.breaker) ()
        in
        (* A failed (or breaker-gated) live fetch degrades to the durable
           archive when it can serve anything; otherwise the site is
           skipped outright. *)
        let degrade ~skip_status =
          match t.archive with
          | Some a when Shard_store.site_records a ~site:name > 0 ->
            let archived = Shard_store.site_records a ~site:name in
            let lag = max 0 (store_len - archived) in
            let h =
              health
                ~status:(Health.Stale { archived; lag })
                ~entries:archived ~quarantined:ingest_q ~skipped_entries:lag
            in
            (Shard_store.merged_site a ~site:name :: streams, h :: healths)
          | _ ->
            let h =
              health ~status:skip_status ~entries:0 ~quarantined:ingest_q
                ~skipped_entries:store_len
            in
            (streams, h :: healths)
        in
        if not (Breaker.allow m.breaker ~now:!(t.clock)) then
          degrade ~skip_status:(Health.Skipped Health.Breaker_open)
        else
          match fetch_member t m with
          | Ok (fetched, retries) ->
            Breaker.record_success m.breaker;
            (* Latest fetch supersedes the site's transit quarantine. *)
            ignore (Quarantine.take_site t.transit ~site:name);
            List.iter
              (fun (seq, raw, reason) -> Quarantine.add t.transit ~site:name ~seq ~raw ~reason)
              fetched.Fault.corrupted;
            let corrupted = List.length fetched.Fault.corrupted in
            let stream = sort_defensively fetched.Fault.delivered in
            Option.iter
              (fun a -> ignore (Shard_store.archive_site a ~site:name stream))
              t.archive;
            let h =
              health
                ~status:(Health.Delivered { retries })
                ~entries:(store_len - corrupted)
                ~quarantined:(ingest_q + corrupted) ~skipped_entries:0
            in
            (stream :: streams, h :: healths)
          | Error why ->
            Breaker.record_failure m.breaker ~now:!(t.clock);
            degrade ~skip_status:(Health.Skipped (Health.Fetch_failed why)))
      ([], []) t.members
  in
  (* The shard tally is read once every archive step has run: a clean
     fetch rebuilds a damaged site's shards, and the report must describe
     the archive as this consolidation left it. *)
  let shards = match t.archive with Some a -> Shard_store.tally a | None -> [] in
  { entries = merge_streams (List.rev streams_rev);
    health = Health.of_sites ~classes:(class_health_rows t) ~shards (List.rev healths_rev);
  }

(* The consolidated view as P_AL. *)
let to_policy t : Prima_core.Policy.t = To_policy.policy_of_entries (consolidated t)

(* Entries within a time window — e.g. one refinement epoch. *)
let window t ~time_from ~time_to =
  List.filter
    (fun e -> e.Hdb.Audit_schema.time >= time_from && e.Hdb.Audit_schema.time <= time_to)
    (consolidated t)

let pp ppf t =
  Fmt.pf ppf "federation of %d sites, %d entries@." (List.length t.members)
    (total_entries t);
  List.iter
    (fun m ->
      Fmt.pf ppf "  %s: %d entries%s, breaker %a@." (Site.name m.msite)
        (Site.length m.msite)
        (match m.fault with
        | Some f when Fault.is_down f -> " (down)"
        | Some _ -> " (fault-injected)"
        | None -> "")
        Breaker.pp_state (Breaker.state m.breaker))
    t.members
