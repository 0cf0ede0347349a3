(* Tournament (k-way) merge over sorted streams.

   A complete binary tournament tree of the next power of two ≥ k leaves:
   each internal node holds the index of the stream that wins its
   subtree, so the overall winner sits at the root and advancing it
   replays only its leaf-to-root path — O(N log k) for N merged records,
   identical to the heap merge it replaces but with a cheaper,
   branch-predictable inner loop.

   Ordering is (key, stream index): ties across streams resolve in stream
   order, and records within one stream are emitted in stream order, so
   the merge is stable and deterministic — the same guarantee the
   consolidated-view QCheck parity test pins against a global stable
   sort. *)

(* Merge sorted streams; stream order is the tie-break priority. *)
let merge ~(key : 'a -> int) (streams : 'a list list) : 'a list =
  let rest = Array.of_list streams in
  let k = Array.length rest in
  if k = 0 then []
  else begin
    let head_key i = match rest.(i) with [] -> max_int | x :: _ -> key x in
    (* Does stream [i] sort strictly before stream [j]?  Exhausted streams
       key at max_int and sink to the bottom of the bracket. *)
    let less i j =
      let ki = head_key i and kj = head_key j in
      ki < kj || (ki = kj && i < j)
    in
    let p = ref 1 in
    while !p < k do p := !p * 2 done;
    let p = !p in
    (* tree.(1) is the root; leaves p .. p+k-1 hold stream indices, the
       padding leaves hold -1 (an absent contestant that always loses). *)
    let tree = Array.make (2 * p) (-1) in
    let better i j = if i < 0 then j else if j < 0 then i else if less j i then j else i in
    for i = 0 to k - 1 do tree.(p + i) <- i done;
    for node = p - 1 downto 1 do
      tree.(node) <- better tree.(2 * node) tree.((2 * node) + 1)
    done;
    let replay winner =
      let node = ref ((p + winner) / 2) in
      while !node >= 1 do
        tree.(!node) <- better tree.(2 * !node) tree.((2 * !node) + 1);
        node := !node / 2
      done
    in
    let acc = ref [] in
    let running = ref true in
    while !running do
      let w = tree.(1) in
      if w < 0 then running := false
      else
        match rest.(w) with
        | [] -> running := false
        | x :: tail ->
          acc := x :: !acc;
          rest.(w) <- tail;
          replay w
    done;
    List.rev !acc
  end

(* A merge's continuation.  [last] is the (key, stream index) of the last
   record a merge of some sorted prefixes emitted.  When every record of
   [streams] — the streams' sorted continuations, by index — sorts after
   it, each whole stream is its prefix followed by its continuation, and
   the merge order (key, stream index, position) puts every new record
   after every old one: the whole merge is the old merge followed by
   [merge streams].  A record with an equal key sorts after it only from
   the same stream or a later one, since lower streams win ties. *)
let merge_after ~key ~last:(last_key, last_stream) streams =
  let after i x =
    let k = key x in
    k > last_key || (k = last_key && i >= last_stream)
  in
  let rec admitted i = function
    | [] -> true
    | s :: rest -> List.for_all (after i) s && admitted (i + 1) rest
  in
  if admitted 0 streams then Some (merge ~key streams) else None

(* The audit-entry instantiation used by consolidation: keyed by entry
   timestamp, ties in stream order. *)
let merge_entries (streams : Hdb.Audit_schema.entry list list) :
    Hdb.Audit_schema.entry list =
  merge ~key:(fun e -> e.Hdb.Audit_schema.time) streams
