(* The Compliance Auditing entry schema of Section 4.2:

     {(time,t), (op,X), (user,u), (data,d), (purpose,p), (authorized,a),
      (status,s)}

   op: 0 = disallow, 1 = allow.  status: 0 = exception-based access (the
   user manually entered the purpose — Break The Glass), 1 = regular. *)

type op =
  | Disallow
  | Allow

type status =
  | Exception_based
  | Regular

(* Optional provenance extension (after the MPI exemplar's audit tables):
   which session/request produced the record, which earlier operation it
   descends from, which fields it changed, and a per-record integrity hash
   over everything else.  Orthogonal to the paper's seven attributes — the
   relational export and Algorithm 5's SQL see exactly the same seven
   columns whether or not an entry carries provenance. *)
type provenance = {
  session : string;
  request : string;
  parent : int option; (* LSN of the operation this one descends from *)
  changed : string list; (* the fields the operation touched *)
  integrity : int; (* hash over the core fields + provenance-minus-this *)
}

type entry = {
  time : int;
  op : op;
  user : string;
  data : string;
  purpose : string;
  authorized : string;
  status : status;
  provenance : provenance option;
}

let entry ~time ~op ~user ~data ~purpose ~authorized ~status =
  { time; op; user; data; purpose; authorized; status; provenance = None }

let op_to_int = function Disallow -> 0 | Allow -> 1

let op_of_int = function
  | 0 -> Disallow
  | 1 -> Allow
  | n -> invalid_arg (Printf.sprintf "Audit_schema.op_of_int: %d" n)

let status_to_int = function Exception_based -> 0 | Regular -> 1

let status_of_int = function
  | 0 -> Exception_based
  | 1 -> Regular
  | n -> invalid_arg (Printf.sprintf "Audit_schema.status_of_int: %d" n)

let attr_time = Vocabulary.Audit_attrs.time
let attr_op = Vocabulary.Audit_attrs.op
let attr_user = Vocabulary.Audit_attrs.user
let attr_data = Vocabulary.Audit_attrs.data
let attr_purpose = Vocabulary.Audit_attrs.purpose
let attr_authorized = Vocabulary.Audit_attrs.authorized
let attr_status = Vocabulary.Audit_attrs.status

(* Attribute order of the schema in the paper. *)
let attributes =
  [ attr_time; attr_op; attr_user; attr_data; attr_purpose; attr_authorized; attr_status ]

(* The A default of Algorithm 4: the projection the SQL analysis groups by. *)
let pattern_attributes = [ attr_data; attr_purpose; attr_authorized ]

let relational_columns =
  [ (attr_time, Relational.Value.T_int);
    (attr_op, Relational.Value.T_int);
    (attr_user, Relational.Value.T_string);
    (attr_data, Relational.Value.T_string);
    (attr_purpose, Relational.Value.T_string);
    (attr_authorized, Relational.Value.T_string);
    (attr_status, Relational.Value.T_int);
  ]

let relational_schema () =
  Relational.Schema.of_list
    (List.map (fun (n, ty) -> Relational.Schema.column n ty) relational_columns)

let to_row e : Relational.Row.t =
  [| Relational.Value.Int e.time;
     Relational.Value.Int (op_to_int e.op);
     Relational.Value.Str e.user;
     Relational.Value.Str e.data;
     Relational.Value.Str e.purpose;
     Relational.Value.Str e.authorized;
     Relational.Value.Int (status_to_int e.status);
  |]

(* Rows carry the paper's seven attributes only: provenance does not
   travel through the relational export. *)
let of_row (row : Relational.Row.t) : entry =
  let open Relational in
  let int_at i =
    match Value.as_int (Row.get row i) with
    | Some v -> v
    | None -> invalid_arg "Audit_schema.of_row: expected integer"
  in
  let str_at i =
    match Value.as_string (Row.get row i) with
    | Some v -> v
    | None -> invalid_arg "Audit_schema.of_row: expected string"
  in
  { time = int_at 0;
    op = op_of_int (int_at 1);
    user = str_at 2;
    data = str_at 3;
    purpose = str_at 4;
    authorized = str_at 5;
    status = status_of_int (int_at 6);
    provenance = None;
  }

(* Association-list view: the entry as the paper's rule of seven RuleTerms. *)
let to_assoc e =
  [ (attr_time, string_of_int e.time);
    (attr_op, string_of_int (op_to_int e.op));
    (attr_user, e.user);
    (attr_data, e.data);
    (attr_purpose, e.purpose);
    (attr_authorized, e.authorized);
    (attr_status, string_of_int (status_to_int e.status));
  ]

(* Binary wire codec for durable storage (the WAL payload format).  CSV is
   the human interchange; the WAL needs something that round-trips any
   byte sequence a corrupted upstream might have handed us, so fields are
   length-prefixed rather than delimited:

     [op : 1] [status : 1] ([len : u16 LE] [bytes]) x5
                            for time (decimal), user, data, purpose, authorized *)

let max_field = 0xFFFF

let check_field s =
  if String.length s > max_field then
    invalid_arg "Audit_schema.to_wire: field longer than 65535 bytes"

let add_field buffer s =
  check_field s;
  let len = String.length s in
  Buffer.add_char buffer (Char.chr (len land 0xFF));
  Buffer.add_char buffer (Char.chr (len lsr 8));
  Buffer.add_string buffer s

let add_core buffer e =
  Buffer.add_char buffer (Char.chr (op_to_int e.op));
  Buffer.add_char buffer (Char.chr (status_to_int e.status));
  add_field buffer (string_of_int e.time);
  add_field buffer e.user;
  add_field buffer e.data;
  add_field buffer e.purpose;
  add_field buffer e.authorized

(* Provenance marker: entries without the extension end exactly after the
   five core fields; entries with it continue with 'P' and the extension
   fields.  [of_wire]'s total-parse discipline covers both shapes. *)
let provenance_marker = 'P'

let add_provenance_fields buffer p =
  add_field buffer p.session;
  add_field buffer p.request;
  add_field buffer (match p.parent with Some l -> string_of_int l | None -> "");
  let changed = List.length p.changed in
  if changed > 0xFFFF then invalid_arg "Audit_schema.to_wire: too many changed fields";
  Buffer.add_char buffer (Char.chr (changed land 0xFF));
  Buffer.add_char buffer (Char.chr (changed lsr 8));
  List.iter (add_field buffer) p.changed

(* What the per-record integrity hash commits to: the canonical core
   serialization plus every provenance field except the hash itself. *)
let integrity_preimage e p =
  let buffer = Buffer.create 96 in
  add_core buffer e;
  Buffer.add_char buffer provenance_marker;
  add_provenance_fields buffer p;
  Buffer.contents buffer

let integrity_hash e =
  match e.provenance with
  | None -> Durable.Chain.hash_string ""
  | Some p -> Durable.Chain.hash_string (integrity_preimage e p)

let verify_integrity e =
  match e.provenance with None -> true | Some p -> p.integrity = integrity_hash e

(* Attach (or replace) the provenance extension, computing the integrity
   hash over the final field values. *)
let with_provenance ~session ~request ?parent ?(changed = []) e =
  let p = { session; request; parent; changed; integrity = 0 } in
  let e = { e with provenance = Some p } in
  { e with provenance = Some { p with integrity = integrity_hash e } }

let provenance_wire e p =
  let buffer = Buffer.create 96 in
  add_core buffer e;
  Buffer.add_char buffer provenance_marker;
  add_provenance_fields buffer p;
  add_field buffer (Durable.Chain.to_hex p.integrity);
  Buffer.contents buffer

(* [string_of_int n] without the string: digits are taken on the
   non-positive side, so [min_int] needs no negation. *)
let decimal_length n =
  let rec go m acc = if m > -10 then acc else go (m / 10) (acc + 1) in
  go (if n < 0 then n else -n) (if n < 0 then 2 else 1)

let put_decimal b pos ~len n =
  let m = ref (if n < 0 then n else -n) in
  for i = pos + len - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.unsafe_set b pos '-'

let put_field b pos s =
  Bytes.set_uint16_le b pos (String.length s);
  Bytes.unsafe_blit_string s 0 b (pos + 2) (String.length s);
  pos + 2 + String.length s

let check_core e =
  check_field e.user; check_field e.data; check_field e.purpose; check_field e.authorized

(* The core wire form, exact-size, written straight into one [Bytes]
   behind [room] bytes the caller fills (an op header); entries with
   provenance take the [Buffer] path and one more copy. *)
let wire_bytes ~room e =
  match e.provenance with
  | Some p ->
    let wire = provenance_wire e p in
    let b = Bytes.create (room + String.length wire) in
    Bytes.blit_string wire 0 b room (String.length wire);
    b
  | None ->
    check_core e;
    let tlen = decimal_length e.time in
    let b =
      Bytes.create
        (room + 12 + tlen + String.length e.user + String.length e.data
       + String.length e.purpose + String.length e.authorized)
    in
    Bytes.set b room (Char.chr (op_to_int e.op));
    Bytes.set b (room + 1) (Char.chr (status_to_int e.status));
    Bytes.set_uint16_le b (room + 2) tlen;
    put_decimal b (room + 4) ~len:tlen e.time;
    let pos = put_field b (room + 4 + tlen) e.user in
    ignore (put_field b (put_field b (put_field b pos e.data) e.purpose) e.authorized);
    b

let to_wire e = Bytes.unsafe_to_string (wire_bytes ~room:0 e)

let check_wire e =
  match e.provenance with None -> check_core e | Some p -> ignore (provenance_wire e p)

(* Total parser: a WAL payload has already passed its CRC, so a [None]
   here means a codec mismatch, not bit rot — the caller decides whether
   that is fatal. *)
let of_wire s =
  let n = String.length s in
  let pos = ref 0 in
  let byte () =
    if !pos >= n then None
    else begin
      let b = Char.code s.[!pos] in
      incr pos;
      Some b
    end
  in
  let field () =
    if !pos + 2 > n then None
    else begin
      let len = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
      pos := !pos + 2;
      if !pos + len > n then None
      else begin
        let f = String.sub s !pos len in
        pos := !pos + len;
        Some f
      end
    end
  in
  let ( let* ) = Option.bind in
  let* op = byte () in
  let* status = byte () in
  let* time = field () in
  let* user = field () in
  let* data = field () in
  let* purpose = field () in
  let* authorized = field () in
  let* time = int_of_string_opt time in
  if op > 1 || status > 1 then None
  else begin
    let* provenance =
      if !pos = n then Some None
      else begin
        let* marker = byte () in
        if marker <> Char.code provenance_marker then None
        else
          let* session = field () in
          let* request = field () in
          let* parent_s = field () in
          let* parent =
            if parent_s = "" then Some None
            else Option.map Option.some (int_of_string_opt parent_s)
          in
          let* lo = byte () in
          let* hi = byte () in
          let count = lo lor (hi lsl 8) in
          let rec fields acc remaining =
            if remaining = 0 then Some (List.rev acc)
            else
              let* f = field () in
              fields (f :: acc) (remaining - 1)
          in
          let* changed = fields [] count in
          let* integrity_s = field () in
          let* integrity = Durable.Chain.of_hex integrity_s in
          Some (Some { session; request; parent; changed; integrity })
      end
    in
    if !pos <> n then None
    else
      Some
        { time;
          op = op_of_int op;
          user;
          data;
          purpose;
          authorized;
          status = status_of_int status;
          provenance;
        }
  end

let equal (a : entry) (b : entry) = a = b

let pp ppf e =
  Fmt.pf ppf "t%d %s %s data=%s purpose=%s authorized=%s %s" e.time
    (match e.op with Allow -> "allow" | Disallow -> "disallow")
    e.user e.data e.purpose e.authorized
    (match e.status with Regular -> "regular" | Exception_based -> "exception");
  match e.provenance with
  | None -> ()
  | Some p ->
    Fmt.pf ppf " [session=%s request=%s%a%s integrity=%s]" p.session p.request
      (fun ppf -> function None -> () | Some l -> Fmt.pf ppf " parent=%d" l)
      p.parent
      (match p.changed with [] -> "" | c -> " changed=" ^ String.concat ";" c)
      (Durable.Chain.to_hex p.integrity)
