(** Tournament (k-way) merge over sorted streams: O(N log k), stable and
    deterministic — ties across streams resolve in stream order, and
    records within one stream keep their order.  Consolidation merges the
    sites' live fetches and stale serves through it. *)

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
