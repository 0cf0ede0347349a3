(** Tournament (k-way) merge over sorted cursors: O(N log k), stable and
    deterministic — ties across cursors resolve by cursor priority, and
    records within one cursor keep cursor order.  The consolidation path
    and the sharded store both merge through it. *)

type 'a cursor = {
  mutable rest : 'a list;
  priority : int;  (** tie-break rank; lower wins on equal keys *)
}

val cursor : ?priority:int -> 'a list -> 'a cursor

val merge_cursors : key:('a -> int) -> 'a cursor list -> 'a list
(** Merge already-sorted cursors into one key-ordered list. *)

val merge : key:('a -> int) -> 'a list list -> 'a list
(** Merge sorted streams; stream order is the tie-break priority. *)

val merge_after : key:('a -> int) -> last:int * int -> 'a list list -> 'a list option
(** [merge_after ~key ~last streams], where [last] is the (key, stream
    index) of the last record a merge of some sorted prefixes emitted and
    [streams] are the sorted continuations of those prefixes, in stream
    order: [Some (merge ~key streams)] when every record sorts after
    [last] — a greater key, or an equal key from stream [last]'s index or
    later — and then the merge of the whole streams is the prefixes'
    merge followed by it; [None] otherwise.  [(min_int, -1)] stands for
    an empty prefix merge. *)

val merge_entries :
  Hdb.Audit_schema.entry list list -> Hdb.Audit_schema.entry list
(** Streams of audit entries keyed by timestamp. *)
