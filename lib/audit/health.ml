(* The health report a fault-aware consolidation returns alongside its
   merged entries.  Accounting invariant: every input record known to the
   federation is exactly one of delivered, quarantined, or at a skipped
   site — delivered + quarantined + skipped_entries = total — and the
   completeness fraction is delivered / total.

   A site served from the durable archive while its live fetch failed is
   [Stale]: its archived records count as delivered, the lag (records the
   live store holds beyond the archive) as stranded — so completeness
   still measures exactly what the merge contains.  Durability state (a
   site's pending WAL replay, the archive's shard tally as the
   consolidation's archive steps left it) rides along, so the report is
   the one source of the federation's lower-bound reasons ([evidence]): a
   degraded site's own totals are not trustworthy even when the
   accounting looks complete. *)

type skip_reason =
  | Breaker_open
  | Fetch_failed of string (* retries exhausted; the last failure *)

type site_status =
  | Delivered of { retries : int } (* fetched, possibly after retries *)
  | Stale of { archived : int; lag : int } (* served from the archive *)
  | Skipped of skip_reason

type site_health = {
  site : string;
  status : site_status;
  fetched : int; (* records the transport carried in this consolidation *)
  entries : int; (* entries this site contributed to the merge *)
  quarantined : int; (* ingest-quarantined + corrupted-in-transit *)
  skipped_entries : int; (* entries stranded when the site was skipped *)
  breaker : Breaker.state;
  trips : int; (* lifetime breaker trips for this site *)
  site_degraded : bool; (* site WAL recovery lossy/tampered, replay pending *)
}

let make ?(site_degraded = false) ?(fetched = 0) ~site ~status ~entries ~quarantined
    ~skipped_entries ~breaker ~trips () =
  { site; status; fetched; entries; quarantined; skipped_entries; breaker; trips; site_degraded }

type t = {
  sites : site_health list;
  classes : Admission.class_stats list; (* per budget class; [] when unattached *)
  delivered : int;
  quarantined : int;
  skipped_entries : int;
  total : int;
  completeness : float; (* delivered / total; 1.0 on an empty federation *)
  shards : (string * (int * int)) list; (* per archived site: shards, of which degraded *)
}

let site_ok s =
  match s.status with Delivered _ | Stale _ -> true | Skipped _ -> false

(* A site that expects nothing is vacuously complete: guard the division
   so an empty site reports 1.0 instead of NaN. *)
let site_completeness (s : site_health) =
  let expected = s.entries + s.quarantined + s.skipped_entries in
  if expected = 0 then 1.0 else float_of_int s.entries /. float_of_int expected

let of_sites ?(classes = []) ~shards (sites : site_health list) =
  let sum f = List.fold_left (fun acc (s : site_health) -> acc + f s) 0 sites in
  let delivered = sum (fun s -> s.entries) in
  let quarantined = sum (fun s -> s.quarantined) in
  let skipped_entries = sum (fun s -> s.skipped_entries) in
  let total = delivered + quarantined + skipped_entries in
  { sites;
    classes;
    delivered;
    quarantined;
    skipped_entries;
    total;
    completeness = (if total = 0 then 1.0 else float_of_int delivered /. float_of_int total);
    shards;
  }

let complete t = t.completeness >= 1.0

(* The window's lower-bound reasons.  Stranded entries and quarantine are
   exactly what pulls completeness below 1.0, so a [Site_dark] or
   [Quarantined] reason is present exactly when it is; a skipped site
   with nothing stored strands nothing and adds no reason. *)
let evidence t =
  let module C = Prima_core.Coverage in
  let site_reasons (s : site_health) =
    (if s.skipped_entries > 0 then [ C.Site_dark { site = s.site; lag = s.skipped_entries } ]
     else [])
    @ if s.site_degraded then [ C.Wal_tail_lost s.site ] else []
  in
  { C.completeness = t.completeness;
    reasons =
      List.concat_map site_reasons t.sites
      @ (if t.quarantined > 0 then [ C.Quarantined t.quarantined ] else [])
      @ List.filter_map
          (fun (site, (_, bad)) ->
            if bad > 0 then Some (C.Shard_degraded { site; shards = bad }) else None)
          t.shards;
  }

let skip_reason_to_string = function
  | Breaker_open -> "breaker open"
  | Fetch_failed why -> Printf.sprintf "fetch failed (%s)" why

let pp_status ppf = function
  | Delivered { retries = 0 } -> Fmt.string ppf "ok"
  | Delivered { retries } -> Fmt.pf ppf "ok after %d retr%s" retries (if retries = 1 then "y" else "ies")
  | Stale { archived; lag } -> Fmt.pf ppf "stale (%d archived, %d behind)" archived lag
  | Skipped reason -> Fmt.string ppf (skip_reason_to_string reason)

let pp_site t ppf s =
  let shards, bad = Option.value (List.assoc_opt s.site t.shards) ~default:(0, 0) in
  Fmt.pf ppf
    "%-16s %-24s fetched=%d entries=%d quarantined=%d stranded=%d shards=%d/%d%s breaker=%a \
     trips=%d"
    s.site
    (Fmt.str "%a" pp_status s.status)
    s.fetched s.entries s.quarantined s.skipped_entries (shards - bad) shards
    (if s.site_degraded then " DEGRADED" else "")
    Breaker.pp_state s.breaker s.trips

let pp_class ppf (c : Admission.class_stats) =
  Fmt.pf ppf "%-16s weight=%d admitted=%d brownouts=%d shed=%d" c.cls c.weight c.admitted
    c.brownouts c.shed

let pp ppf t =
  Fmt.pf ppf "federation health: %d/%d records delivered (completeness %.1f%%)@."
    t.delivered t.total (100. *. t.completeness);
  Fmt.pf ppf "  delivered=%d quarantined=%d stranded-at-skipped-sites=%d@." t.delivered
    t.quarantined t.skipped_entries;
  let e = evidence t in
  if e.Prima_core.Coverage.reasons <> [] then
    Fmt.pf ppf "  coverage is a %a@." Prima_core.Coverage.pp_qualifier
      (Prima_core.Coverage.Lower_bound e);
  List.iter (fun s -> Fmt.pf ppf "  %a@." (pp_site t) s) t.sites;
  if t.classes <> [] then begin
    Fmt.pf ppf "  budget classes:@.";
    List.iter (fun c -> Fmt.pf ppf "    %a@." pp_class c) t.classes
  end
