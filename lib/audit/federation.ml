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
     completeness fraction downstream coverage must surface.

   Consolidation is incremental where it can be.  Each member keeps a
   cursor over its last clean live delivery, and its next fetch carries
   only the store's suffix past it.  Called [~since] the previous
   consolidation, the result is just the merge of those suffixes when
   they all sort after the previous merge's last entry; anything else
   returns the whole merge. *)

(* What a member's last clean live delivery covered: the site and wrapper
   it came through (compared physically, so a reseat, a replaced wrapper
   or a recovered site invalidates it), how many records, and the newest
   timestamp among them. *)
type cursor = {
  source : Site.t;
  via : Fault.t option;
  count : int;
  newest : int; (* min_int when [count = 0] *)
}

type member = {
  mutable msite : Site.t; (* mutable so a crash-recovered site can be reseated *)
  mutable fault : Fault.t option; (* None = perfectly reliable transport *)
  breaker : Breaker.t;
  (* set by a consolidation that delivered the member live with nothing
     corrupted; cleared by any other *)
  mutable cursor : cursor option;
}

(* One consolidation, for a later call to name as [since]; compared
   physically with the federation's latest. *)
type position = { consolidation : int }

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
  (* Tenant admission controller (optional); the system's query gate and
     every gated site ingest read it from here. *)
  mutable admission : Admission.t option;
  mutable consolidations : int;
  mutable last : position option; (* the latest consolidation *)
}

let create ?(retry = Retry.default) ?(seed = 0) () =
  { members = [];
    clock = ref 0;
    retry;
    prng = Splitmix.create ~seed;
    transit = Quarantine.create ();
    archive = None;
    admission = None;
    consolidations = 0;
    last = None;
  }

let member ?fault ?breaker site =
  { msite = site; fault; breaker = Breaker.create ?config:breaker (); cursor = None }

let add_member t m = t.members <- t.members @ [ m ]

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
    Option.iter (fun f -> Fault.reseat f site) m.fault
  | None -> invalid_arg (Printf.sprintf "Federation.reseat_site: unknown site %s" name)

let attach_archive t archive = t.archive <- Some archive

let archive t = t.archive

(* Every log the federation reaches: each member's op WAL and its store's
   own log (the central audit WAL is the store log of the member [System]
   registers as clinical-db), then the transit quarantine's log.  The
   archive's shards are not among them: its manifest must be written after
   them, so the archive syncs and checkpoints itself. *)
let logs t =
  List.concat_map
    (fun m -> List.filter_map Fun.id [ Site.wal m.msite; Hdb.Audit_store.log (Site.store m.msite) ])
    t.members
  @ Option.to_list (Quarantine.log t.transit)

(* {2 Tenant admission} — the one controller, and the one definition of
   the backpressure it reads. *)

let set_admission t admission = t.admission <- admission

let admission t = t.admission

(* The live overload signals backpressure is derived from: the unsynced
   records of every log the federation reaches, degraded archive shards
   and open breakers. *)
let pressure_signals t =
  let wal_backlog =
    List.fold_left (fun acc log -> acc + Durable.Log.pending_records log) 0 (logs t)
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

(* The site a fetch reads: the wrapper's, when there is one. *)
let source m = match m.fault with Some f -> Fault.site f | None -> m.msite

(* The member's cursor, when its next fetch may carry only the suffix past
   it: the same site through the same wrapper, one that cannot corrupt. *)
let live_cursor m =
  match m.cursor with
  | Some c when c.source == source m -> (
    match (c.via, m.fault) with
    | None, None -> Some c
    | Some a, Some b when a == b && (Fault.config b).Fault.p_corrupt <= 0. -> Some c
    | _ -> None)
  | _ -> None

(* One site through its fault wrapper under retry, carrying its records
   from [from] on; [None] fault is a perfect in-process transport. *)
let fetch_member t m ~from : (Fault.fetched * int, string) result =
  match m.fault with
  | None ->
    Ok ({ Fault.delivered = Site.entries_from m.msite from; corrupted = [] }, 0)
  | Some f ->
    let result, stats =
      Retry.run ~policy:t.retry ~prng:t.prng ~clock:t.clock (fun ~attempt:_ ->
          Fault.fetch ~from f ~clock:t.clock)
    in
    (match result with
    | Ok fetched -> Ok (fetched, stats.Retry.attempts - 1)
    | Error failure -> Error (Fault.failure_to_string failure))

type result_t = {
  entries : Hdb.Audit_schema.entry list;
  health : Health.t;
  extends : bool;
  position : position;
}

(* One member's part in a consolidation: its stream for the whole merge
   (absent when skipped; a suffix fetch re-reads its prefix from the
   append-only store only if needed), and the new records when the fetch
   carried only those and none is older than the member's newest. *)
type arrival = {
  whole : Hdb.Audit_schema.entry list Lazy.t option;
  fresh : Hdb.Audit_schema.entry list option;
  site_health : Health.site_health;
}

(* The previous merge's last entry under the tournament's key, (time,
   member index), read off the members' cursors: a member's newest entry
   is the last of its stream, and at equal times the higher index merges
   later.  [(min_int, -1)] when the cursors cover nothing. *)
let boundary t =
  let _, key =
    List.fold_left
      (fun (i, ((time, _) as key)) m ->
        match m.cursor with
        | Some c when c.count > 0 && c.newest >= time -> (i + 1, (c.newest, i))
        | _ -> (i + 1, key))
      (0, (min_int, -1)) t.members
  in
  key

let arrive t m : arrival =
  let name = Site.name m.msite in
  let store_len = Site.length m.msite in
  let ingest_q = Site.quarantined_count m.msite in
  let health ?fetched ~status ~entries ~quarantined ~skipped_entries () =
    Health.make ~site_degraded:(Site.durably_degraded m.msite) ?fetched ~site:name ~status
      ~entries ~quarantined ~skipped_entries
      ~breaker:(Breaker.state m.breaker) ~trips:(Breaker.trips m.breaker) ()
  in
  let cursor = live_cursor m in
  m.cursor <- None;
  (* A failed (or breaker-gated) live fetch degrades to the durable
     archive when it can serve anything; otherwise the site is skipped
     outright. *)
  let degrade ~skip_status =
    match t.archive with
    | Some a when Shard_store.site_records a ~site:name > 0 ->
      let archived = Shard_store.site_records a ~site:name in
      let lag = max 0 (store_len - archived) in
      { whole = Some (Lazy.from_val (Shard_store.merged_site a ~site:name));
        fresh = None;
        site_health =
          health ~status:(Health.Stale { archived; lag }) ~entries:archived
            ~quarantined:ingest_q ~skipped_entries:lag ();
      }
    | _ ->
      { whole = None;
        fresh = None;
        site_health =
          health ~status:skip_status ~entries:0 ~quarantined:ingest_q
            ~skipped_entries:store_len ();
      }
  in
  if not (Breaker.allow m.breaker ~now:!(t.clock)) then
    degrade ~skip_status:(Health.Skipped Health.Breaker_open)
  else
    let from = match cursor with Some c -> c.count | None -> 0 in
    match fetch_member t m ~from with
    | Error why ->
      Breaker.record_failure m.breaker ~now:!(t.clock);
      degrade ~skip_status:(Health.Skipped (Health.Fetch_failed why))
    | Ok (fetched, retries) ->
      Breaker.record_success m.breaker;
      (* Latest fetch supersedes the site's transit quarantine. *)
      ignore (Quarantine.take_site t.transit ~site:name);
      List.iter
        (fun (seq, raw, reason) -> Quarantine.add t.transit ~site:name ~seq ~raw ~reason)
        fetched.Fault.corrupted;
      let corrupted = List.length fetched.Fault.corrupted in
      let carried = List.length fetched.Fault.delivered in
      let delivered = sort_defensively fetched.Fault.delivered in
      let src = source m in
      let whole, fresh =
        match cursor with
        | None -> (Lazy.from_val delivered, None)
        | Some c ->
          ( lazy (sorted_entries src),
            if List.for_all (fun e -> e.Hdb.Audit_schema.time >= c.newest) delivered then
              Some delivered
            else None )
      in
      (* A suffix that extends the archived stream is appended by
         position; anything else goes through the time partition. *)
      Option.iter
        (fun a ->
          let appended =
            match (cursor, fresh) with
            | Some c, Some fresh ->
              Shard_store.append_site a ~site:name ~held:c.count ~newest:c.newest fresh
            | _ -> false
          in
          if not appended then ignore (Shard_store.archive_site a ~site:name (Lazy.force whole)))
        t.archive;
      if corrupted = 0 then
        m.cursor <-
          Some
            { source = src;
              via = m.fault;
              count = from + carried;
              newest =
                List.fold_left
                  (fun acc e -> max acc e.Hdb.Audit_schema.time)
                  (match cursor with Some c -> c.newest | None -> min_int)
                  fetched.Fault.delivered;
            };
      { whole = Some whole;
        fresh;
        site_health =
          health
            ~fetched:(carried + corrupted)
            ~status:(Health.Delivered { retries })
            ~entries:(store_len - corrupted)
            ~quarantined:(ingest_q + corrupted) ~skipped_entries:0 ();
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
   anything durable is damaged.

   [since] names the previous consolidation.  When every member was
   fetched by suffix and every new record sorts after that merge's last
   entry, the new merge is the old one followed by the merge of the
   suffixes, and only the suffixes' merge is returned ([extends]).  Fault
   draws, clock, archive steps and health are the same either way. *)
let consolidated_result ?since t : result_t =
  (* Consolidation observes the freshest overload signals, so the
     admission bar tracks the federation's actual health. *)
  refresh_pressure t;
  let extending =
    match (since, t.last) with Some s, Some last -> s == last | _ -> false
  in
  let last = boundary t in
  let arrivals = List.rev (List.fold_left (fun acc m -> arrive t m :: acc) [] t.members) in
  let rec suffixes acc = function
    | [] -> Some (List.rev acc)
    | { fresh = Some fresh; _ } :: rest -> suffixes (fresh :: acc) rest
    | { fresh = None; _ } :: _ -> None
  in
  let extension =
    if extending then
      Option.bind (suffixes [] arrivals)
        (Tournament.merge_after ~key:(fun e -> e.Hdb.Audit_schema.time) ~last)
    else None
  in
  let entries, extends =
    match extension with
    | Some merged -> (merged, true)
    | None ->
      (merge_streams (List.filter_map (fun a -> Option.map Lazy.force a.whole) arrivals), false)
  in
  (* The shard tally is read once every archive step has run: a clean
     fetch rebuilds a damaged site's shards, and the report must describe
     the archive as this consolidation left it. *)
  let shards = match t.archive with Some a -> Shard_store.tally a | None -> [] in
  t.consolidations <- t.consolidations + 1;
  let position = { consolidation = t.consolidations } in
  t.last <- Some position;
  { entries;
    health =
      Health.of_sites ~classes:(Option.fold ~none:[] ~some:Admission.stats t.admission) ~shards
        (List.map (fun a -> a.site_health) arrivals);
    extends;
    position;
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
