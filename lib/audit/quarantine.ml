(* Holding area for audit records the federation could not take in: raw
   records a site's mapping rejected (Mapping.Unmappable) and records that
   arrived corrupted from a remote fetch.  Each item keeps the offending raw
   record, its site-local sequence number and a reason, so the record can be
   reprocessed — after a mapping fix, or a clean re-fetch — without losing
   the audit trail's accounting: every input record is either ingested,
   quarantined, or at a skipped site. *)

type item = {
  site : string;
  seq : int; (* site-local sequence number; the exactly-once key *)
  raw : (string * string) list;
  reason : string;
}

type t = {
  (* (site, seq) -> item; insertion order retained for reporting *)
  index : (string * int, item) Hashtbl.t;
  mutable order : (string * int) list; (* newest first *)
  (* Write-ahead durability (optional): mutations are framed as op records
     into the log before the tables change, so quarantined items — and
     their resolution — survive a restart. *)
  mutable log : Durable.Log.t option;
}

(* Op record codec.  One byte of opcode, then length-prefixed strings and
   u64 sequence numbers:

     'A' [seq : u64] [site] [reason] [npairs : u32] ([key] [value]) xn
     'R' [seq : u64] [site]
     'C'

   A checkpoint image is the live items re-encoded as 'A' ops, so replay
   needs only this one decoder. *)

let add_str buffer s =
  Durable.Frame.put_u32 buffer (String.length s);
  Buffer.add_string buffer s

let encode_add ~site ~seq ~raw ~reason =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer 'A';
  Durable.Frame.put_u64 buffer seq;
  add_str buffer site;
  add_str buffer reason;
  Durable.Frame.put_u32 buffer (List.length raw);
  List.iter
    (fun (k, v) ->
      add_str buffer k;
      add_str buffer v)
    raw;
  Buffer.contents buffer

let encode_remove ~site ~seq =
  let buffer = Buffer.create 24 in
  Buffer.add_char buffer 'R';
  Durable.Frame.put_u64 buffer seq;
  add_str buffer site;
  Buffer.contents buffer

let encode_clear = "C"

type op =
  | Op_add of item
  | Op_remove of string * int
  | Op_clear

let decode_op s =
  let n = String.length s in
  let pos = ref 0 in
  let ( let* ) = Option.bind in
  let u64 () =
    if !pos + 8 > n then None
    else begin
      let v = Durable.Frame.get_u64 s !pos in
      pos := !pos + 8;
      if v < 0 then None else Some v
    end
  in
  let str () =
    if !pos + 4 > n then None
    else begin
      let len = Durable.Frame.get_u32 s !pos in
      pos := !pos + 4;
      if len < 0 || !pos + len > n then None
      else begin
        let v = String.sub s !pos len in
        pos := !pos + len;
        Some v
      end
    end
  in
  if n = 0 then None
  else
    match s.[0] with
    | 'C' -> if n = 1 then Some Op_clear else None
    | 'R' ->
      pos := 1;
      let* seq = u64 () in
      let* site = str () in
      if !pos <> n then None else Some (Op_remove (site, seq))
    | 'A' ->
      pos := 1;
      let* seq = u64 () in
      let* site = str () in
      let* reason = str () in
      let* npairs =
        if !pos + 4 > n then None
        else begin
          let v = Durable.Frame.get_u32 s !pos in
          pos := !pos + 4;
          if v < 0 then None else Some v
        end
      in
      let rec pairs acc k =
        if k = 0 then Some (List.rev acc)
        else
          let* key = str () in
          let* value = str () in
          pairs ((key, value) :: acc) (k - 1)
      in
      let* raw = pairs [] npairs in
      if !pos <> n then None else Some (Op_add { site; seq; raw; reason })
    | _ -> None

let create () = { index = Hashtbl.create 16; order = []; log = None }

let length t = Hashtbl.length t.index

let mem t ~site ~seq = Hashtbl.mem t.index (site, seq)

let log_op t payload =
  match t.log with
  | Some log -> ignore (Durable.Log.append log payload)
  | None -> ()

(* Table updates alone — shared by the public mutators (which log first)
   and recovery replay (whose ops are already in the log). *)
let add_mem t ~site ~seq ~raw ~reason =
  let key = (site, seq) in
  if not (Hashtbl.mem t.index key) then t.order <- key :: t.order;
  Hashtbl.replace t.index key { site; seq; raw; reason }

let remove_mem t ~site ~seq =
  let key = (site, seq) in
  if Hashtbl.mem t.index key then begin
    Hashtbl.remove t.index key;
    t.order <- List.filter (fun k -> k <> key) t.order
  end

let clear_mem t =
  Hashtbl.reset t.index;
  t.order <- []

(* Idempotent: re-adding a (site, seq) already held replaces the reason but
   does not duplicate the item. *)
let add t ~site ~seq ~raw ~reason =
  log_op t (encode_add ~site ~seq ~raw ~reason);
  add_mem t ~site ~seq ~raw ~reason

let remove t ~site ~seq =
  if mem t ~site ~seq then begin
    log_op t (encode_remove ~site ~seq);
    remove_mem t ~site ~seq
  end

let items t =
  List.rev_map (fun key -> Hashtbl.find t.index key) t.order

let site_items t ~site =
  List.filter (fun item -> String.equal item.site site) (items t)

let site_count t ~site = List.length (site_items t ~site)

(* Remove and return every item of [site] — the reprocessing entry point:
   the caller re-applies the (possibly fixed) mapping and re-adds whatever
   still fails. *)
let take_site t ~site =
  let taken = site_items t ~site in
  List.iter (fun item -> remove t ~site ~seq:item.seq) taken;
  taken

let clear t =
  if length t > 0 || t.log <> None then log_op t encode_clear;
  clear_mem t

(* --- durability --- *)

let log t = t.log

let sync t = Option.iter Durable.Log.sync t.log

(* Replay a recovered op log into [t] (assumed fresh), then attach it so
   new mutations are write-ahead.  Ops that fail to decode are counted —
   they passed their CRC, so a non-zero count means a codec mismatch. *)
let restore t log =
  let recovery = Durable.Log.open_or_recover log in
  let undecodable = ref 0 in
  List.iter
    (fun payload ->
      match decode_op payload with
      | Some (Op_add { site; seq; raw; reason }) -> add_mem t ~site ~seq ~raw ~reason
      | Some (Op_remove (site, seq)) -> remove_mem t ~site ~seq
      | Some Op_clear -> clear_mem t
      | None -> incr undecodable)
    recovery.Durable.Recovery.entries;
  t.log <- Some log;
  (recovery, !undecodable)

let open_durable log =
  let t = create () in
  let recovery, undecodable = restore t log in
  (t, recovery, undecodable)

(* Compact the op history into a snapshot of the live items (each re-encoded
   as an 'A' op, so replay reuses the one decoder) and truncate the WAL. *)
let checkpoint t =
  match t.log with
  | None -> ()
  | Some durable_log ->
    let entries =
      List.map
        (fun { site; seq; raw; reason } -> encode_add ~site ~seq ~raw ~reason)
        (items t)
    in
    Durable.Log.checkpoint durable_log ~entries

(* Keep the op log bounded: compact automatically once it exceeds the
   policy.  Mutations are write-ahead (op logged, then applied), so at
   trigger time the live items are exactly the state the logged ops
   produce. *)
let enable_auto_checkpoint ?(policy = Durable.Log.checkpoint_every ~records:1024 ()) t =
  match t.log with
  | None -> ()
  | Some durable_log ->
    Durable.Log.set_auto_checkpoint durable_log policy (fun () ->
        List.map
          (fun { site; seq; raw; reason } -> encode_add ~site ~seq ~raw ~reason)
          (items t))

let pp_item ppf item =
  Fmt.pf ppf "%s#%d: %s" item.site item.seq item.reason

let pp ppf t =
  match items t with
  | [] -> Fmt.pf ppf "quarantine empty@."
  | items ->
    Fmt.pf ppf "quarantine (%d):@." (List.length items);
    List.iter (fun item -> Fmt.pf ppf "  %a@." pp_item item) items
