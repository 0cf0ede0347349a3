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
   If the held records disagree with that prefix — a damaged shard, a
   lost device — the site's shards are rebuilt wholesale from the fetch:
   a clean fetch supersedes a damaged archive.  Per-site streams are
   assumed time-sorted (the consolidation path sorts defensively).

   Consolidation reads the archive through {!Tournament} cursors, one per
   shard, site-major in bucket order — within a site equal timestamps
   share a bucket, so the merge's (time, cursor-priority) order equals
   the federation's (time, site-index) order. *)

type status =
  | Healthy
  | Torn of { lost : int } (* records known lost (0 = tail dropped, count unknown) *)
  | Tampered of { offset : int } (* divergence offset; shard quarantined *)

type shard = {
  site : string;
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

type t = {
  seed : int;
  bucket_ms : int;
  manifest_device : Durable.Device.t;
  mutable shards : shard list; (* site-major, buckets ascending per site *)
  mutable next_shard_seed : int;
  (* where the last append went: a site's fetch is time-sorted, so the
     next entry almost always goes there too; cleared with [shards] *)
  mutable last : shard option;
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
  { seed;
    bucket_ms;
    manifest_device = Durable.Device.create ~seed:(seed * 7 + 1) ();
    shards = [];
    next_shard_seed = seed * 7 + 2;
    last = None;
  }

let bucket_ms t = t.bucket_ms

let bucket_of t time = if t.bucket_ms <= 0 then 0 else time / t.bucket_ms

let manifest_device t = t.manifest_device

(* The surviving media, for crash simulation / reopen: (name, wal,
   snapshot) per shard — the simulated "directory listing". *)
let devices t =
  List.map
    (fun s ->
      ( shard_name ~site:s.site ~bucket:s.bucket,
        Durable.Log.wal_device s.log,
        Durable.Log.snapshot_device s.log ))
    t.shards

let site_shards t ~site = List.filter (fun s -> String.equal s.site site) t.shards

(* Fold the append tail into the committed list on read (amortised). *)
let shard_entries s =
  if s.tail <> [] then begin
    s.entries <- s.entries @ List.rev s.tail;
    s.tail <- []
  end;
  s.entries

(* Records the shard can serve (a tampered shard serves none). *)
let servable s = match s.status with Tampered _ -> 0 | _ -> s.records

let site_records t ~site =
  List.fold_left (fun acc s -> acc + servable s) 0 (site_shards t ~site)

let site_stranded t ~site =
  List.fold_left (fun acc s -> acc + s.stranded) 0 (site_shards t ~site)

let site_degraded t ~site =
  List.exists (fun s -> s.status <> Healthy) (site_shards t ~site)

let shards_degraded t = List.length (List.filter (fun s -> s.status <> Healthy) t.shards)

let tally t =
  List.map
    (fun site ->
      let mine = site_shards t ~site in
      (site, (List.length mine, List.length (List.filter (fun s -> s.status <> Healthy) mine))))
    (List.sort_uniq String.compare (List.map (fun s -> s.site) t.shards))

let total_records t = List.fold_left (fun acc s -> acc + servable s) 0 t.shards

let shard_count t = List.length t.shards

(* The newest archived timestamp for [site]; -1 with nothing archived. *)
let site_high_water t ~site =
  List.fold_left
    (fun acc s -> if s.records = 0 then acc else max acc s.hi)
    (-1) (site_shards t ~site)

let fresh_shard t ~site ~bucket =
  let seed = t.next_shard_seed in
  t.next_shard_seed <- t.next_shard_seed + 1;
  { site;
    bucket;
    log = Durable.Log.create ~seed ();
    entries = [];
    tail = [];
    records = 0;
    stranded = 0;
    status = Healthy;
    lo = 0;
    hi = 0;
  }

(* Keep [t.shards] site-major with buckets ascending within a site: a new
   site's shards go to the end, a new bucket into its site's group in
   bucket order.  Site groups are contiguous by construction. *)
let insert_shard t shard =
  if not (List.exists (fun s -> String.equal s.site shard.site) t.shards) then
    t.shards <- t.shards @ [ shard ]
  else begin
    let rec go = function
      | [] -> [ shard ]
      | s :: rest when String.equal s.site shard.site && s.bucket > shard.bucket ->
        shard :: s :: rest
      | s :: rest
        when String.equal s.site shard.site
             && not (List.exists (fun x -> String.equal x.site shard.site) rest) ->
        s :: shard :: rest
      | s :: rest -> s :: go rest
    in
    t.shards <- go t.shards
  end

let find_shard t ~site ~bucket =
  List.find_opt (fun s -> String.equal s.site site && s.bucket = bucket) t.shards

let shard_for t ~site ~bucket =
  match t.last with
  | Some s when s.bucket = bucket && String.equal s.site site -> s
  | _ ->
    let s =
      match find_shard t ~site ~bucket with
      | Some s -> s
      | None ->
        let s = fresh_shard t ~site ~bucket in
        insert_shard t s;
        s
    in
    t.last <- Some s;
    s

let append_entry t ~site entry =
  let time = entry.Hdb.Audit_schema.time in
  let s = shard_for t ~site ~bucket:(bucket_of t time) in
  ignore (Durable.Log.append s.log (Hdb.Audit_schema.to_wire entry));
  s.tail <- entry :: s.tail;
  if s.records = 0 then s.lo <- time;
  if s.records = 0 || time > s.hi then s.hi <- time;
  s.records <- s.records + 1

let drop_site_shards t ~site =
  t.shards <- List.filter (fun s -> not (String.equal s.site site)) t.shards;
  t.last <- None

type archive_summary = {
  appended : int; (* fresh records archived this call *)
  rebuilt : bool; (* the site's shards were rebuilt from the fetch *)
}

(* Archive one site's fetched stream (time-sorted).  The prefix at or
   below the high-water mark must already be held record-for-record; any
   disagreement — damaged shard, lost device, corruption hole — rebuilds
   the site's shards wholesale from the fetch. *)
let archive_site t ~site entries =
  let hwm = site_high_water t ~site in
  let old_prefix, fresh =
    List.partition (fun e -> e.Hdb.Audit_schema.time <= hwm) entries
  in
  let held = site_records t ~site in
  let consistent = (not (site_degraded t ~site)) && List.length old_prefix = held in
  if consistent then begin
    List.iter (append_entry t ~site) fresh;
    { appended = List.length fresh; rebuilt = false }
  end
  else begin
    drop_site_shards t ~site;
    List.iter (append_entry t ~site) entries;
    { appended = List.length entries; rebuilt = true }
  end

(* --- consolidation cursors --- *)

(* One cursor per servable shard, priority in site-major bucket order;
   within a site equal times share a bucket, so (time, priority) order
   equals the federation's (time, site-index) order. *)
let cursors t =
  List.filter (fun s -> match s.status with Tampered _ -> false | _ -> true) t.shards
  |> List.mapi (fun i s -> Tournament.cursor ~priority:i (shard_entries s))

let merged t =
  Tournament.merge_cursors ~key:(fun e -> e.Hdb.Audit_schema.time) (cursors t)

let merged_site t ~site =
  List.concat_map
    (fun s -> match s.status with Tampered _ -> [] | _ -> shard_entries s)
    (site_shards t ~site)

(* --- durability --- *)

let manifest_of t =
  { Durable.Manifest.shards =
      List.map
        (fun s ->
          { Durable.Manifest.name = shard_name ~site:s.site ~bucket:s.bucket;
            lo = s.lo;
            hi = s.hi;
            records = s.records;
            chain = Durable.Log.chain_head s.log;
          })
        t.shards;
  }

(* Shards first, manifest second: the manifest never claims records the
   shards do not durably hold (a crash in between leaves the manifest
   behind, which reopen treats as extra-records-survived, not loss). *)
let sync t =
  List.iter (fun s -> Durable.Log.sync s.log) t.shards;
  Durable.Manifest.write t.manifest_device (manifest_of t)

let checkpoint t =
  List.iter
    (fun s ->
      let image = List.map Hdb.Audit_schema.to_wire (shard_entries s) in
      Durable.Log.checkpoint s.log ~entries:image)
    t.shards;
  Durable.Manifest.write t.manifest_device (manifest_of t)

(* --- open-or-recover --- *)

(* Recover one shard log; [expected] is its manifest descriptor if the
   manifest survived. *)
let recover_shard ~name ~site ~bucket ~log ~expected =
  let report = Durable.Log.open_or_recover log in
  let decoded = ref [] in
  let undecodable = ref 0 in
  List.iter
    (fun wire ->
      match Hdb.Audit_schema.of_wire wire with
      | Some e -> decoded := e :: !decoded
      | None -> incr undecodable)
    report.Durable.Recovery.entries;
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
        if Durable.Recovery.dropped_tail report || !undecodable > 0 then
          (Torn { lost = !undecodable }, 0)
        else (Healthy, 0))
  in
  let lo = match entries with [] -> 0 | e :: _ -> e.Hdb.Audit_schema.time in
  let hi = List.fold_left (fun m e -> max m e.Hdb.Audit_schema.time) lo entries in
  let shard =
    { site; bucket; log; entries; tail = []; records = recovered; stranded; status; lo; hi }
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
    { seed;
      bucket_ms;
      manifest_device = manifest;
      shards = [];
      next_shard_seed = (seed * 7) + 2 + List.length shards;
      last = None;
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
        insert_shard t shard)
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
        let s = fresh_shard t ~site ~bucket in
        s.status <- Torn { lost = records };
        insert_shard t s
      | _ -> ())
    lost;
  (* Rewrite the manifest to match what actually survived. *)
  Durable.Manifest.write t.manifest_device (manifest_of t);
  (t, { manifest_rebuilt; adopted = !adopted; lost; shard_reports = List.rev !reports })

let shard_status t ~site ~bucket =
  Option.map (fun s -> s.status) (find_shard t ~site ~bucket)

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
    (fun (s : shard) ->
      { name = shard_name ~site:s.site ~bucket:s.bucket;
        site = s.site;
        bucket = s.bucket;
        records = s.records;
        stranded = s.stranded;
        status = s.status;
      })
    t.shards

let pp ppf t =
  Fmt.pf ppf "shard store: %d shard(s), %d record(s), %d degraded@." (shard_count t)
    (total_records t) (shards_degraded t);
  List.iter
    (fun (i : shard_info) ->
      Fmt.pf ppf "  %s: %d record(s) %s@." i.name i.records (status_to_string i.status))
    (shard_infos t)
