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

(* Op record codec.  One byte of opcode, then u32-prefixed strings and
   u64 sequence numbers ({!Durable.Frame}'s payload fields):

     'A' [seq : u64] [site] [reason] [npairs : u32] ([key] [value]) xn
     'R' [seq : u64] [site]
     'C'

   A checkpoint image is the live items re-encoded as 'A' ops, so replay
   needs only this one decoder. *)

type op =
  | Op_add of item
  | Op_remove of string * int
  | Op_clear

let encode_op op =
  let module F = Durable.Frame in
  let buffer = Buffer.create 64 in
  (match op with
  | Op_add { site; seq; raw; reason } ->
    Buffer.add_char buffer 'A';
    F.put_u64 buffer seq;
    F.put_string buffer site;
    F.put_string buffer reason;
    F.put_pairs buffer raw
  | Op_remove (site, seq) ->
    Buffer.add_char buffer 'R';
    F.put_u64 buffer seq;
    F.put_string buffer site
  | Op_clear -> Buffer.add_char buffer 'C');
  Buffer.contents buffer

let decode_op s =
  let module F = Durable.Frame in
  let ( let* ) = Option.bind in
  let r = F.reader s in
  let* code = F.read_char r in
  match code with
  | 'A' ->
    let* seq = F.read_u64 r in
    let* site = F.read_string r in
    let* reason = F.read_string r in
    let* raw = F.read_pairs r in
    F.finish r (Op_add { site; seq; raw; reason })
  | 'R' ->
    let* seq = F.read_u64 r in
    let* site = F.read_string r in
    F.finish r (Op_remove (site, seq))
  | 'C' -> F.finish r Op_clear
  | _ -> None

let create () = { index = Hashtbl.create 16; order = []; log = None }

let length t = Hashtbl.length t.index

let mem t ~site ~seq = Hashtbl.mem t.index (site, seq)

let log_op t op =
  match t.log with
  | Some log -> ignore (Durable.Log.append log (encode_op op))
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
  log_op t (Op_add { site; seq; raw; reason });
  add_mem t ~site ~seq ~raw ~reason

let remove t ~site ~seq =
  if mem t ~site ~seq then begin
    log_op t (Op_remove (site, seq));
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
  if length t > 0 || t.log <> None then log_op t Op_clear;
  clear_mem t

(* --- durability --- *)

let log t = t.log

let apply_op t = function
  | Op_add { site; seq; raw; reason } -> add_mem t ~site ~seq ~raw ~reason
  | Op_remove (site, seq) -> remove_mem t ~site ~seq
  | Op_clear -> clear_mem t

(* The snapshot image: the live items, each re-encoded as an 'A' op so
   replay reuses the one decoder.  Mutations are write-ahead (op logged,
   then applied), so whenever the log takes it, mid-append included, the
   live items are exactly the state the logged ops produce. *)
let image t = List.map (fun item -> encode_op (Op_add item)) (items t)

(* Replay a recovered op log into [t] (assumed fresh), then attach it so
   new mutations are write-ahead and checkpoints write [t]'s image. *)
let restore t log =
  let result = Durable.Log.replay log ~decode:decode_op ~apply:(apply_op t) in
  Durable.Log.attach log ~image:(fun () -> image t);
  t.log <- Some log;
  result

let open_durable log =
  let t = create () in
  let recovery, undecodable = restore t log in
  (t, recovery, undecodable)

let pp_item ppf item =
  Fmt.pf ppf "%s#%d: %s" item.site item.seq item.reason

let pp ppf t =
  match items t with
  | [] -> Fmt.pf ppf "quarantine empty@."
  | items ->
    Fmt.pf ppf "quarantine (%d):@." (List.length items);
    List.iter (fun item -> Fmt.pf ppf "  %a@." pp_item item) items
