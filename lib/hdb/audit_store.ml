(* Storage-efficient audit log (the "minimal impact, storage and performance
   efficient logs" of HDB Compliance Auditing).

   Columnar layout: times are an int vector; user/data/purpose/authorized are
   dictionary-encoded int vectors (audit logs repeat a small set of strings
   endlessly); op and status are bit-packed.  [naive_bytes]/[encoded_bytes]
   feed the storage-efficiency experiment (E6). *)

module Ids = Hashtbl.Make (String)

type dict = {
  ids : int Ids.t;
  mutable strings : string array;
  mutable count : int;
}

let dict_create () = { ids = Ids.create 64; strings = [||]; count = 0 }

let dict_intern d s =
  match Ids.find_opt d.ids s with
  | Some id -> id
  | None ->
    let id = d.count in
    if id >= Array.length d.strings then begin
      let capacity = max 16 (2 * Array.length d.strings) in
      let strings = Array.make capacity "" in
      Array.blit d.strings 0 strings 0 d.count;
      d.strings <- strings
    end;
    d.strings.(id) <- s;
    d.count <- d.count + 1;
    Ids.add d.ids s id;
    id

let dict_get d id = d.strings.(id)

type int_vec = {
  mutable data : int array;
  mutable len : int;
}

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len >= Array.length v.data then begin
    let capacity = max 64 (2 * Array.length v.data) in
    let data = Array.make capacity 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

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

(* Provenance side column: one word per row (None for the common case), so
   the columnar core stays exactly as compact as before for trails without
   the extension. *)
type prov_vec = {
  mutable items : Audit_schema.provenance option array;
  mutable plen : int;
}

let prov_create () = { items = [||]; plen = 0 }

let prov_push v x =
  if v.plen >= Array.length v.items then begin
    let capacity = max 64 (2 * Array.length v.items) in
    let items = Array.make capacity None in
    Array.blit v.items 0 items 0 v.plen;
    v.items <- items
  end;
  v.items.(v.plen) <- x;
  v.plen <- v.plen + 1

type t = {
  users : dict;
  datas : dict;
  purposes : dict;
  authorizeds : dict;
  times : int_vec;
  user_ids : int_vec;
  data_ids : int_vec;
  purpose_ids : int_vec;
  authorized_ids : int_vec;
  ops : bitvec;
  statuses : bitvec;
  provenances : prov_vec;
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
    times = vec_create ();
    user_ids = vec_create ();
    data_ids = vec_create ();
    purpose_ids = vec_create ();
    authorized_ids = vec_create ();
    ops = bitvec_create ();
    statuses = bitvec_create ();
    provenances = prov_create ();
    log = None;
  }

let length t = t.times.len

(* Column update alone — shared by the public append (which logs first)
   and recovery replay (whose entries are already in the log). *)
let append_mem t (e : Audit_schema.entry) =
  vec_push t.times e.time;
  vec_push t.user_ids (dict_intern t.users e.user);
  vec_push t.data_ids (dict_intern t.datas e.data);
  vec_push t.purpose_ids (dict_intern t.purposes e.purpose);
  vec_push t.authorized_ids (dict_intern t.authorizeds e.authorized);
  bitvec_push t.ops (e.op = Audit_schema.Allow);
  bitvec_push t.statuses (e.status = Audit_schema.Regular);
  prov_push t.provenances e.provenance

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
  { Audit_schema.time = t.times.data.(i);
    op = (if bitvec_get t.ops i then Audit_schema.Allow else Audit_schema.Disallow);
    user = dict_get t.users t.user_ids.data.(i);
    data = dict_get t.datas t.data_ids.data.(i);
    purpose = dict_get t.purposes t.purpose_ids.data.(i);
    authorized = dict_get t.authorizeds t.authorized_ids.data.(i);
    status = (if bitvec_get t.statuses i then Audit_schema.Regular else Audit_schema.Exception_based);
    provenance = t.provenances.items.(i);
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
  let dict_bytes d =
    let sum = ref 0 in
    for i = 0 to d.count - 1 do
      sum := !sum + String.length d.strings.(i) + word
    done;
    !sum
  in
  let n = length t in
  let prov_bytes = ref (n * word) (* one word per row for the option column *) in
  for i = 0 to t.provenances.plen - 1 do
    match t.provenances.items.(i) with
    | None -> ()
    | Some p ->
      prov_bytes :=
        !prov_bytes + String.length p.session + String.length p.request + (4 * word)
        + List.fold_left (fun acc c -> acc + String.length c + word) 0 p.changed
  done;
  (* times + four id columns *)
  (5 * n * word)
  + (2 * ((n + 7) / 8))
  + dict_bytes t.users + dict_bytes t.datas + dict_bytes t.purposes
  + dict_bytes t.authorizeds
  + !prov_bytes

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
