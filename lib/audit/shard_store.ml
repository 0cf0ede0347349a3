(* The consolidated archive, sharded by (site, time-range) behind a
   checksummed shard manifest.

   Every shard is one {!Durable.Log} holding the wire-encoded entries of
   one site for one time bucket ([bucket_ms] wide); the manifest
   ({!Durable.Manifest}) is rewritten — after the shards are synced — at
   every durability point, cataloguing each shard's record count and
   chain head.  Open-or-recover semantics degrade per shard, never
   whole-store:

   - a readable manifest anchors each shard: fewer recovered records than
     catalogued is data loss ([Torn], the verified prefix still serves);
     a [Tamper_detected] recovery verdict quarantines the shard ([Tampered]
     — its records are excluded from the merge and counted stranded);
   - an unreadable (torn, bit-flipped) manifest is rebuilt by scanning the
     shards themselves, each individually recoverable;
   - a shard device the manifest does not know is adopted (it was created
     after the last manifest write); a catalogued shard with no surviving
     device is reported lost.

   Archiving is per-site and append-only up to a high-water mark: entries
   at or below the newest archived timestamp must already be held, so a
   fetch is split into the already-archived prefix and the fresh suffix.
   If the held records disagree with that prefix, entry by entry — a
   damaged shard, a lost device, a record the site lost in a crash and
   replaced — the site's shards are rebuilt wholesale from the fetch:
   a clean fetch supersedes a damaged archive.  Per-site streams are
   assumed time-sorted (the consolidation path sorts defensively).

   The archive keeps one record per site: its shards in bucket order —
   within a site equal timestamps share a bucket, so bucket order is time
   order — beside the counters a consolidation reads.  A stale serve
   returns a site's servable records in that order ([merged_site]), and
   the federation merges them with the live fetches. *)

type status =
  | Healthy
  | Torn of { lost : int } (* records known lost (0 = tail dropped, count unknown) *)
  | Tampered of { offset : int } (* divergence offset; shard quarantined *)

type shard = {
  bucket : int;
  log : Durable.Log.t;
  mutable entries : Hdb.Audit_schema.entry list; (* append order = time order *)
  mutable tail : Hdb.Audit_schema.entry list; (* reversed; entries = rev tail *)
  mutable records : int;
  mutable stranded : int; (* records catalogued but unservable (tampered) *)
  mutable status : status;
  (* manifest bounds, kept on append: first time, newest time (0 empty) *)
  mutable lo : int;
  mutable hi : int;
}

(* One archived site: its shards, and the counters over them kept as
   shards are added and appended to, so a consolidation reads them without
   a scan of every shard. *)
type site = {
  name : string;
  mutable shards : shard list; (* buckets ascending; never empty *)
  mutable degraded : int; (* shards torn or tampered *)
  mutable servable : int; (* records in shards that are not tampered *)
  mutable high_water : int; (* newest archived time; -1 with nothing archived *)
  (* where the site's last append went: its stream is time-sorted, so the
     next entry almost always goes there too *)
  mutable last : shard option;
}

type t = {
  bucket_ms : int;
  manifest_device : Durable.Device.t;
  (* in the order they were first archived; a rebuilt site goes last *)
  mutable sites : site list;
  mutable next_shard_seed : int;
}

type shard_report = {
  r_name : string;
  r_site : string;
  r_status : status;
  r_records : int;
}

type open_report = {
  manifest_rebuilt : bool;
  adopted : int; (* shard devices the manifest did not know *)
  lost : string list; (* catalogued shards with no surviving device *)
  shard_reports : shard_report list;
}

let status_to_string = function
  | Healthy -> "healthy"
  | Torn { lost } -> Printf.sprintf "torn (%d lost)" lost
  | Tampered { offset } -> Printf.sprintf "tampered @%d" offset

let shard_name ~site ~bucket = Printf.sprintf "%s#%d" site bucket

let parse_shard_name name =
  match String.rindex_opt name '#' with
  | None -> None
  | Some i -> (
    let site = String.sub name 0 i in
    match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
    | Some bucket -> Some (site, bucket)
    | None -> None)

let default_bucket_ms = 10_000

let create ?(bucket_ms = default_bucket_ms) ?(seed = 0) () =
  { bucket_ms;
    manifest_device = Durable.Device.create ~seed:(seed * 7 + 1) ();
    sites = [];
    next_shard_seed = seed * 7 + 2;
  }

let bucket_ms t = t.bucket_ms

let bucket_of t time = if t.bucket_ms <= 0 then 0 else time / t.bucket_ms

let manifest_device t = t.manifest_device

(* Every shard beside its site's name, site by site and buckets ascending:
   the order every listing of the archive keeps. *)
let all_shards t = List.concat_map (fun x -> List.map (fun s -> (x.name, s)) x.shards) t.sites

(* The surviving media, for crash simulation / reopen: (name, wal,
   snapshot) per shard — the simulated "directory listing". *)
let devices t =
  List.map
    (fun (site, s) ->
      ( shard_name ~site ~bucket:s.bucket,
        Durable.Log.wal_device s.log,
        Durable.Log.snapshot_device s.log ))
    (all_shards t)

let find_site t site = List.find_opt (fun x -> String.equal x.name site) t.sites

let find_shard x ~bucket = List.find_opt (fun s -> s.bucket = bucket) x.shards

(* Fold the append tail into the committed list on read (amortised). *)
let shard_entries s =
  if s.tail <> [] then begin
    s.entries <- s.entries @ List.rev s.tail;
    s.tail <- []
  end;
  s.entries

(* Records the shard can serve (a tampered shard serves none). *)
let servable s = match s.status with Tampered _ -> 0 | _ -> s.records

let read_site t ~site f ~none = match find_site t site with Some x -> f x | None -> none

let site_records t ~site = read_site t ~site (fun x -> x.servable) ~none:0

let site_stranded t ~site =
  read_site t ~site (fun x -> List.fold_left (fun n s -> n + s.stranded) 0 x.shards) ~none:0

let site_degraded t ~site = read_site t ~site (fun x -> x.degraded > 0) ~none:false

let sum t f = List.fold_left (fun n x -> n + f x) 0 t.sites

let shards_degraded t = sum t (fun x -> x.degraded)

let tally t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun x -> (x.name, (List.length x.shards, x.degraded))) t.sites)

let total_records t = sum t (fun x -> x.servable)

let shard_count t = sum t (fun x -> List.length x.shards)

(* The newest archived timestamp for [site]; -1 with nothing archived. *)
let site_high_water t ~site = read_site t ~site (fun x -> x.high_water) ~none:(-1)

(* A shard's log checkpoints the wire form of its entries, in append
   order. *)
let attached s =
  Durable.Log.attach s.log ~image:(fun () -> List.map Hdb.Audit_schema.to_wire (shard_entries s));
  s

let fresh_shard t ~bucket =
  let seed = t.next_shard_seed in
  t.next_shard_seed <- t.next_shard_seed + 1;
  attached
    { bucket;
      log = Durable.Log.create ~seed ();
      entries = [];
      tail = [];
      records = 0;
      stranded = 0;
      status = Healthy;
      lo = 0;
      hi = 0;
    }

(* [site]'s record; a site archived for the first time goes last. *)
let site_for t site =
  match find_site t site with
  | Some x -> x
  | None ->
    let x = { name = site; shards = []; degraded = 0; servable = 0; high_water = -1; last = None } in
    t.sites <- t.sites @ [ x ];
    x

(* Add a shard to its site in bucket order, counted as it stands. *)
let insert_shard x shard =
  let rec go = function
    | s :: rest when s.bucket <= shard.bucket -> s :: go rest
    | rest -> shard :: rest
  in
  x.shards <- go x.shards;
  if shard.status <> Healthy then x.degraded <- x.degraded + 1;
  x.servable <- x.servable + servable shard;
  if shard.records > 0 then x.high_water <- max x.high_water shard.hi

(* Append a site's entries, each to its time bucket's shard (created on
   first use).  Its stream is time-sorted, so an entry almost always goes
   where the last one went, which the site's record keeps at hand. *)
let append_entries t ~site entries =
  if entries <> [] then begin
    let x = site_for t site in
    List.iter
      (fun entry ->
        let time = entry.Hdb.Audit_schema.time in
        let bucket = bucket_of t time in
        let s =
          match x.last with
          | Some s when s.bucket = bucket -> s
          | _ ->
            let s =
              match find_shard x ~bucket with
              | Some s -> s
              | None ->
                let s = fresh_shard t ~bucket in
                insert_shard x s;
                s
            in
            x.last <- Some s;
            s
        in
        ignore (Durable.Log.append s.log (Hdb.Audit_schema.to_wire entry));
        s.tail <- entry :: s.tail;
        if s.records = 0 then s.lo <- time;
        if s.records = 0 || time > s.hi then s.hi <- time;
        s.records <- s.records + 1;
        (match s.status with Tampered _ -> () | _ -> x.servable <- x.servable + 1);
        x.high_water <- max x.high_water time)
      entries
  end

(* A site's servable records, in bucket order. *)
let merged_site t ~site =
  read_site t ~site
    (fun x ->
      List.concat_map
        (fun s -> match s.status with Tampered _ -> [] | _ -> shard_entries s)
        x.shards)
    ~none:[]

type archive_summary = {
  appended : int; (* fresh records archived this call *)
  rebuilt : bool; (* the site's shards were rebuilt from the fetch *)
}

(* Archive one site's fetched stream (time-sorted).  The prefix at or
   below the high-water mark must already be held record for record —
   equal counts are not enough: a record the site lost in a crash, and a
   late one at the same time after it, leave the count as it was.  Any
   disagreement — damaged shard, lost device, corruption hole, a replaced
   record — rebuilds the site's shards wholesale from the fetch. *)
let archive_site t ~site entries =
  let hwm = site_high_water t ~site in
  let old_prefix, fresh =
    List.partition (fun e -> e.Hdb.Audit_schema.time <= hwm) entries
  in
  let consistent =
    (not (site_degraded t ~site))
    && List.equal Hdb.Audit_schema.equal old_prefix (merged_site t ~site)
  in
  if consistent then begin
    append_entries t ~site fresh;
    { appended = List.length fresh; rebuilt = false }
  end
  else begin
    t.sites <- List.filter (fun x -> not (String.equal x.name site)) t.sites;
    append_entries t ~site entries;
    { appended = List.length entries; rebuilt = true }
  end

(* Append a site's records by position: [entries] are its stream from
   record [held] on, none older than [newest], the newest time among the
   first [held].  That holds only while the archive keeps exactly those
   [held] records on healthy shards; otherwise nothing is appended and the
   caller archives the whole stream through [archive_site].  Unlike the
   time partition, an entry that repeats the newest archived time is new
   here, not already held. *)
let append_site t ~site ~held ~newest entries =
  let holds =
    (not (site_degraded t ~site))
    && site_records t ~site = held
    && (held = 0 || site_high_water t ~site = newest)
  in
  if holds then append_entries t ~site entries;
  holds

(* --- durability --- *)

let manifest_of t =
  { Durable.Manifest.shards =
      List.map
        (fun (site, s) ->
          { Durable.Manifest.name = shard_name ~site ~bucket:s.bucket;
            lo = s.lo;
            hi = s.hi;
            records = s.records;
            chain = Durable.Log.chain_head s.log;
          })
        (all_shards t);
  }

(* Shards first, manifest second: the manifest never claims records the
   shards do not durably hold (a crash in between leaves the manifest
   behind, which reopen treats as extra-records-survived, not loss). *)
let sync t =
  List.iter (fun (_, s) -> Durable.Log.sync s.log) (all_shards t);
  Durable.Manifest.write t.manifest_device (manifest_of t)

let checkpoint t =
  List.iter (fun (_, s) -> Durable.Log.checkpoint s.log) (all_shards t);
  Durable.Manifest.write t.manifest_device (manifest_of t)

(* --- open-or-recover --- *)

(* Recover one shard log; [expected] is its manifest descriptor if the
   manifest survived. *)
let recover_shard ~name ~site ~bucket ~log ~expected =
  let decoded = ref [] in
  let report, undecodable =
    Durable.Log.replay log ~decode:Hdb.Audit_schema.of_wire ~apply:(fun e ->
        decoded := e :: !decoded)
  in
  let entries = List.rev !decoded in
  let recovered = List.length entries in
  let status, stranded =
    match report.Durable.Recovery.verdict with
    | Durable.Recovery.Tamper_detected { offset } ->
      ( Tampered { offset },
        match expected with Some d -> d.Durable.Manifest.records | None -> recovered )
    | Durable.Recovery.Verified | Durable.Recovery.Torn_tail -> (
      match expected with
      | Some d when recovered < d.Durable.Manifest.records ->
        (Torn { lost = d.Durable.Manifest.records - recovered }, 0)
      | Some _ | None ->
        if Durable.Recovery.dropped_tail report || undecodable > 0 then
          (Torn { lost = undecodable }, 0)
        else (Healthy, 0))
  in
  let lo = match entries with [] -> 0 | e :: _ -> e.Hdb.Audit_schema.time in
  let hi = List.fold_left (fun m e -> max m e.Hdb.Audit_schema.time) lo entries in
  let shard =
    attached { bucket; log; entries; tail = []; records = recovered; stranded; status; lo; hi }
  in
  { r_name = name; r_site = site; r_status = status; r_records = recovered }, shard

(* Rebuild a store from surviving media: the manifest device plus the
   "directory listing" of shard devices [(name, wal, snapshot)].  A
   readable manifest anchors per-shard expectations; an unreadable one is
   rebuilt from the shard scans. *)
let reopen ?(bucket_ms = default_bucket_ms) ?(seed = 0) ~manifest ~shards () =
  let catalogue, manifest_rebuilt =
    match Durable.Manifest.read manifest with
    | Ok (Some m) -> (Some m, false)
    | Ok None -> (None, false)
    | Error _ -> (None, true)
  in
  let t =
    { bucket_ms;
      manifest_device = manifest;
      sites = [];
      next_shard_seed = (seed * 7) + 2 + List.length shards;
    }
  in
  let adopted = ref 0 in
  let reports = ref [] in
  List.iter
    (fun (name, wal, snapshot) ->
      match parse_shard_name name with
      | None -> ()
      | Some (site, bucket) ->
        let expected = Option.bind catalogue (fun m -> Durable.Manifest.find m name) in
        (match (catalogue, expected) with
        | Some _, None -> incr adopted (* created after the last manifest write *)
        | _ -> ());
        let log = Durable.Log.of_devices ~wal ~snapshot in
        let report, shard = recover_shard ~name ~site ~bucket ~log ~expected in
        reports := report :: !reports;
        insert_shard (site_for t site) shard)
    shards;
  let lost =
    match catalogue with
    | None -> []
    | Some m ->
      List.filter_map
        (fun (d : Durable.Manifest.shard) ->
          if List.exists (fun (name, _, _) -> String.equal name d.name) shards then None
          else Some d.name)
        m.Durable.Manifest.shards
  in
  (* A lost shard leaves its site inconsistent: surface it as a torn
     placeholder so the next clean fetch rebuilds the site wholesale. *)
  List.iter
    (fun name ->
      match (parse_shard_name name, catalogue) with
      | Some (site, bucket), Some m ->
        let records =
          match Durable.Manifest.find m name with
          | Some d -> d.Durable.Manifest.records
          | None -> 0
        in
        let s = fresh_shard t ~bucket in
        s.status <- Torn { lost = records };
        insert_shard (site_for t site) s
      | _ -> ())
    lost;
  (* Rewrite the manifest to match what actually survived. *)
  Durable.Manifest.write t.manifest_device (manifest_of t);
  (t, { manifest_rebuilt; adopted = !adopted; lost; shard_reports = List.rev !reports })

let shard_status t ~site ~bucket =
  read_site t ~site (fun x -> Option.map (fun s -> s.status) (find_shard x ~bucket)) ~none:None

type shard_info = {
  name : string;
  site : string;
  bucket : int;
  records : int;
  stranded : int;
  status : status;
}

let shard_infos t =
  List.map
    (fun (site, (s : shard)) ->
      { name = shard_name ~site ~bucket:s.bucket;
        site;
        bucket = s.bucket;
        records = s.records;
        stranded = s.stranded;
        status = s.status;
      })
    (all_shards t)

let pp ppf t =
  Fmt.pf ppf "shard store: %d shard(s), %d record(s), %d degraded@." (shard_count t)
    (total_records t) (shards_degraded t);
  List.iter
    (fun (i : shard_info) ->
      Fmt.pf ppf "  %s: %d record(s) %s@." i.name i.records (status_to_string i.status))
    (shard_infos t)
