(* Minimal RFC-4180-style CSV reader/writer for loading fixture data and
   exporting experiment results.  Quoted fields may contain commas, quotes
   ("" escape) and newlines.

   The lexer records whether each field was quoted: an unquoted empty field
   is the NULL spelling, while a quoted empty field [""] is a genuine empty
   string on STRING columns — the writer emits [Str ""] as [""] so the two
   round-trip distinguishably. *)

type field = {
  text : string;
  quoted : bool;
}

(* Each record is paired with the 1-based physical line its first field
   starts on, so parse errors upstream can point at the offending line —
   quoted fields may span lines, which is why the record index alone is
   not enough. *)
let parse_field_seq_numbered (input : string) : (int * field list) list =
  let n = String.length input in
  let records = ref [] in
  let fields = ref [] in
  let buffer = Buffer.create 32 in
  let field_quoted = ref false in
  let line = ref 1 in
  let record_start = ref 1 in
  let flush_field () =
    fields := { text = Buffer.contents buffer; quoted = !field_quoted } :: !fields;
    Buffer.clear buffer;
    field_quoted := false
  in
  let flush_record () =
    flush_field ();
    records := (!record_start, List.rev !fields) :: !records;
    fields := []
  in
  let newline () =
    incr line;
    record_start := !line
  in
  let rec plain i =
    if i >= n then begin
      if Buffer.length buffer > 0 || !field_quoted || !fields <> [] then flush_record ()
    end
    else
      match input.[i] with
      | ',' -> flush_field (); plain (i + 1)
      | '\r' when i + 1 < n && input.[i + 1] = '\n' ->
        flush_record ();
        newline ();
        plain (i + 2)
      | '\n' ->
        flush_record ();
        newline ();
        plain (i + 1)
      | '"' when Buffer.length buffer = 0 ->
        field_quoted := true;
        quoted (i + 1)
      | c ->
        Buffer.add_char buffer c;
        plain (i + 1)
  and quoted i =
    if i >= n then Errors.fail Errors.Parse "unterminated quoted CSV field"
    else
      match input.[i] with
      | '"' when i + 1 < n && input.[i + 1] = '"' ->
        Buffer.add_char buffer '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | '\n' as c ->
        (* Inside quotes the newline is data, but it still advances the
           physical line counter. *)
        incr line;
        Buffer.add_char buffer c;
        quoted (i + 1)
      | c ->
        Buffer.add_char buffer c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !records

let parse_field_seq (input : string) : field list list =
  List.map snd (parse_field_seq_numbered input)

let parse_line_seq_numbered (input : string) : (int * string list) list =
  List.map
    (fun (line, fields) -> (line, List.map (fun f -> f.text) fields))
    (parse_field_seq_numbered input)

let parse_value ?(quoted = false) ty text =
  if String.equal text "" then begin
    (* Only a *quoted* empty field on a STRING column is the empty string;
       everywhere else emptiness means absence. *)
    match (ty : Value.ty) with
    | Value.T_string when quoted -> Value.Str ""
    | _ -> Value.Null
  end
  else
    match (ty : Value.ty) with
    | Value.T_int ->
      (match int_of_string_opt text with
      | Some i -> Value.Int i
      | None -> Errors.fail Errors.Parse "CSV: %S is not an integer" text)
    | Value.T_float ->
      (match float_of_string_opt text with
      | Some f -> Value.Float f
      | None -> Errors.fail Errors.Parse "CSV: %S is not a float" text)
    | Value.T_bool ->
      (match String.lowercase_ascii text with
      | "true" | "t" | "1" -> Value.Bool true
      | "false" | "f" | "0" -> Value.Bool false
      | _ -> Errors.fail Errors.Parse "CSV: %S is not a boolean" text)
    | Value.T_string -> Value.Str text

(* [load_into table csv ~has_header] appends parsed rows; column order must
   match the table schema. *)
let load_into table csv ~has_header =
  let records = parse_field_seq csv in
  let records =
    if has_header then (match records with _ :: r -> r | [] -> []) else records
  in
  let schema = Table.schema table in
  List.iter
    (fun fields ->
      if List.length fields <> Schema.arity schema then
        Errors.fail Errors.Parse "CSV: row arity %d does not match schema arity %d"
          (List.length fields) (Schema.arity schema);
      let row =
        List.mapi
          (fun i f -> parse_value ~quoted:f.quoted (Schema.ty_at schema i) f.text)
          fields
      in
      Table.insert table (Row.of_list row))
    records;
  List.length records

let escape_field s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quote then s
  else begin
    let buffer = Buffer.create (String.length s + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string buffer "\"\"" else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
  end

let value_to_field = function
  | Value.Null -> ""
  | Value.Str "" -> "\"\"" (* distinguishable from NULL's bare empty field *)
  | v -> escape_field (Value.to_string v)

let result_to_csv (schema : Schema.t) rows =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (String.concat "," (Schema.column_names schema));
  Buffer.add_char buffer '\n';
  List.iter
    (fun row ->
      Buffer.add_string buffer
        (String.concat "," (List.map value_to_field (Row.to_list row)));
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer
