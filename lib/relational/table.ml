(* In-memory heap table: schema + growable row store + optional hash
   indexes.  Deletions compact the store and rebuild indexes — acceptable
   for the read-mostly, append-heavy workloads of PRIMA (audit logs,
   clinical tables). *)

type t = {
  name : string;
  schema : Schema.t;
  rows : Row.t Vec.t;
  mutable indexes : Index.t list;
  mutable version : int;
}

let create ~name ~schema = { name; schema; rows = Vec.create (); indexes = []; version = 0 }

let name t = t.name

let schema t = t.schema

let row_count t = Vec.length t.rows

let version t = t.version

let check_row t row =
  if Row.arity row <> Schema.arity t.schema then
    Errors.fail Errors.Execute "table %s: row arity %d, schema arity %d" t.name
      (Row.arity row) (Schema.arity t.schema);
  Array.mapi
    (fun i v ->
      match Value.coerce (Schema.ty_at t.schema i) v with
      | Some v' -> v'
      | None ->
        Errors.fail Errors.Execute "table %s: column %s expects %s, got %s" t.name
          (Schema.name_at t.schema i)
          (Value.ty_to_string (Schema.ty_at t.schema i))
          (Value.to_string v))
    row

let insert t row =
  let row = check_row t row in
  let row_id = Vec.length t.rows in
  Vec.push t.rows row;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.add idx row row_id) t.indexes

let insert_values t values = insert t (Row.of_list values)

let get t row_id = Vec.get t.rows row_id

let iter f t = Vec.iter f t.rows

let iteri f t = Vec.iteri f t.rows

let fold f init t = Vec.fold_left f init t.rows

let to_list t = Vec.to_list t.rows

let rebuild_indexes t =
  List.iter Index.clear t.indexes;
  Vec.iteri
    (fun row_id row -> List.iter (fun idx -> Index.add idx row row_id) t.indexes)
    t.rows

let create_index t ~column_name =
  let column = Schema.find_exn t.schema column_name in
  if List.exists (fun idx -> Index.column idx = column) t.indexes then ()
  else begin
    let idx = Index.create ~column in
    t.indexes <- idx :: t.indexes;
    rebuild_indexes t
  end

let index_on t ~column =
  List.find_opt (fun idx -> Index.column idx = column) t.indexes

(* Keep rows satisfying [keep]; returns the number removed. *)
let delete_where t keep =
  let kept = Vec.filter keep t.rows in
  let removed = Vec.length t.rows - Vec.length kept in
  Vec.clear t.rows;
  Vec.iter (Vec.push t.rows) kept;
  t.version <- t.version + 1;
  rebuild_indexes t;
  removed

let update_where t ~pred ~transform =
  let changed = ref 0 in
  Vec.iteri
    (fun i row ->
      if pred row then begin
        Vec.set t.rows i (check_row t (transform row));
        incr changed
      end)
    t.rows;
  if !changed > 0 then (t.version <- t.version + 1; rebuild_indexes t);
  !changed

let truncate t =
  Vec.clear t.rows;
  t.version <- t.version + 1;
  List.iter Index.clear t.indexes

let pp ppf t =
  Fmt.pf ppf "table %s %a: %d rows" t.name Schema.pp t.schema (row_count t)
