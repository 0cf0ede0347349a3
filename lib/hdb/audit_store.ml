(* Storage-efficient audit log (the "minimal impact, storage and performance
   efficient logs" of HDB Compliance Auditing).

   Columnar layout: times are an int vector; user/data/purpose/authorized are
   dictionary-encoded int vectors (audit logs repeat a small set of strings
   endlessly); op and status are bit-packed.  [naive_bytes]/[encoded_bytes]
   feed the storage-efficiency experiment (E6). *)

module Ids = Hashtbl.Make (String)
module Vec = Relational.Vec

type dict = {
  ids : int Ids.t;
  strings : string Vec.t; (* by id *)
}

let dict_create () = { ids = Ids.create 64; strings = Vec.create () }

let dict_intern d s =
  match Ids.find_opt d.ids s with
  | Some id -> id
  | None ->
    let id = Vec.length d.strings in
    Vec.push d.strings s;
    Ids.add d.ids s id;
    id

(* The string that the id column [ids] holds at row [i]. *)
let dict_get d ids i = Vec.get d.strings (Vec.get ids i)

type bitvec = {
  mutable bits : Bytes.t;
  mutable blen : int;
}

let bitvec_create () = { bits = Bytes.create 0; blen = 0 }

let bitvec_push b x =
  let byte = b.blen / 8 in
  if byte >= Bytes.length b.bits then begin
    let capacity = max 16 (2 * Bytes.length b.bits) in
    let bits = Bytes.make capacity '\000' in
    Bytes.blit b.bits 0 bits 0 (Bytes.length b.bits);
    b.bits <- bits
  end;
  if x then begin
    let current = Char.code (Bytes.get b.bits byte) in
    Bytes.set b.bits byte (Char.chr (current lor (1 lsl (b.blen mod 8))))
  end;
  b.blen <- b.blen + 1

let bitvec_get b i = Char.code (Bytes.get b.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

type t = {
  users : dict;
  datas : dict;
  purposes : dict;
  authorizeds : dict;
  times : int Vec.t;
  user_ids : int Vec.t;
  data_ids : int Vec.t;
  purpose_ids : int Vec.t;
  authorized_ids : int Vec.t;
  ops : bitvec;
  statuses : bitvec;
  (* Provenance side column: one word per row, None for the common case,
     so a trail without the extension pays that word and nothing more. *)
  provenances : Audit_schema.provenance option Vec.t;
  (* Write-ahead durability (optional): every append is framed into the
     log before touching the columns, so after a crash the recovered WAL
     prefix is always a prefix of what this store held. *)
  mutable log : Durable.Log.t option;
}

let create () =
  { users = dict_create ();
    datas = dict_create ();
    purposes = dict_create ();
    authorizeds = dict_create ();
    times = Vec.create ();
    user_ids = Vec.create ();
    data_ids = Vec.create ();
    purpose_ids = Vec.create ();
    authorized_ids = Vec.create ();
    ops = bitvec_create ();
    statuses = bitvec_create ();
    provenances = Vec.create ();
    log = None;
  }

let length t = Vec.length t.times

(* Column update alone — shared by the public append (which logs first)
   and recovery replay (whose entries are already in the log). *)
let append_mem t (e : Audit_schema.entry) =
  Vec.push t.times e.time;
  Vec.push t.user_ids (dict_intern t.users e.user);
  Vec.push t.data_ids (dict_intern t.datas e.data);
  Vec.push t.purpose_ids (dict_intern t.purposes e.purpose);
  Vec.push t.authorized_ids (dict_intern t.authorizeds e.authorized);
  bitvec_push t.ops (e.op = Audit_schema.Allow);
  bitvec_push t.statuses (e.status = Audit_schema.Regular);
  Vec.push t.provenances e.provenance

(* An entry the wire codec cannot encode is refused before any state
   changes, with or without a log: a store never holds what its WAL,
   snapshot or a downstream archive could not write. *)
let append t (e : Audit_schema.entry) =
  (match t.log with
  | Some log -> ignore (Durable.Log.append log (Audit_schema.to_wire e))
  | None -> Audit_schema.check_wire e);
  append_mem t e

let get t i : Audit_schema.entry =
  if i < 0 || i >= length t then invalid_arg "Audit_store.get: index out of bounds";
  { Audit_schema.time = Vec.get t.times i;
    op = (if bitvec_get t.ops i then Audit_schema.Allow else Audit_schema.Disallow);
    user = dict_get t.users t.user_ids i;
    data = dict_get t.datas t.data_ids i;
    purpose = dict_get t.purposes t.purpose_ids i;
    authorized = dict_get t.authorizeds t.authorized_ids i;
    status = (if bitvec_get t.statuses i then Audit_schema.Regular else Audit_schema.Exception_based);
    provenance = Vec.get t.provenances i;
  }

let iter f t =
  for i = 0 to length t - 1 do
    f (get t i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun e -> acc := f !acc e) t;
  !acc

(* Entries [from, length) in append order, built back to front. *)
let to_list_from t from =
  if from < 0 then invalid_arg "Audit_store.to_list_from: negative position";
  let acc = ref [] in
  for i = length t - 1 downto from do
    acc := get t i :: !acc
  done;
  !acc

let to_list t = to_list_from t 0

let append_all t entries = List.iter (append t) entries

let of_entries entries =
  let t = create () in
  append_all t entries;
  t

(* --- durability --- *)

let log t = t.log

(* Base LSN of the attached log (0 without one): the store's first entry
   sits at this LSN, so entry [i] is LSN [base + i]. *)
let base_lsn t =
  match t.log with
  | Some log -> Durable.Log.next_lsn log - length t
  | None -> 0

let lsn t = base_lsn t + length t

(* The snapshot image: every entry's wire form, in append order.  Appends
   are write-ahead (log first, columns after), so whenever the log takes
   it, mid-append included, the columns hold exactly the state the WAL
   covers. *)
let image t = List.rev (fold (fun acc e -> Audit_schema.to_wire e :: acc) [] t)

(* Replay a recovered log into [t] (assumed fresh), then attach it so new
   appends are write-ahead and checkpoints write [t]'s image. *)
let restore t log =
  let result = Durable.Log.replay log ~decode:Audit_schema.of_wire ~apply:(append_mem t) in
  Durable.Log.attach log ~image:(fun () -> image t);
  t.log <- Some log;
  result

let open_durable log =
  let t = create () in
  let recovery, undecodable = restore t log in
  (t, recovery, undecodable)

(* Size of the flat row-store equivalent: every string stored inline. *)
let naive_bytes t =
  let word = 8 in
  fold
    (fun acc (e : Audit_schema.entry) ->
      acc + (3 * word) (* time, op, status *)
      + String.length e.user + String.length e.data + String.length e.purpose
      + String.length e.authorized + (4 * word) (* string headers *))
    0 t

(* Size of the encoded representation: id vectors + packed bits +
   dictionaries. *)
let encoded_bytes t =
  let word = 8 in
  let dict_bytes d = Vec.fold_left (fun acc s -> acc + String.length s + word) 0 d.strings in
  let prov_bytes acc = function
    | None -> acc
    | Some (p : Audit_schema.provenance) ->
      acc + String.length p.session + String.length p.request + (4 * word)
      + List.fold_left (fun acc c -> acc + String.length c + word) 0 p.changed
  in
  let n = length t in
  (* times + four id columns *)
  (5 * n * word)
  + (2 * ((n + 7) / 8))
  + dict_bytes t.users + dict_bytes t.datas + dict_bytes t.purposes
  + dict_bytes t.authorizeds
  (* one word per row for the option column, and what it points to *)
  + Vec.fold_left prov_bytes (n * word) t.provenances

(* Export into a relational table (used by refinement's SQL analysis). *)
let to_table t ~database ~table_name =
  let tbl =
    match Relational.Database.find_table database table_name with
    | Some existing ->
      Relational.Table.truncate existing;
      existing
    | None ->
      Relational.Database.create_table database ~name:table_name
        ~schema:(Audit_schema.relational_schema ())
  in
  iter (fun e -> Relational.Table.insert tbl (Audit_schema.to_row e)) t;
  tbl
