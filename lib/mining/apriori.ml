(* Apriori (Agrawal & Srikant, VLDB 1994) — the algorithm the paper proposes
   for its future-work pattern extraction.  Classic levelwise search:
   L1 from item frequencies, then candidate generation by joining k-itemsets
   sharing a (k-1)-prefix, subset-based pruning, and a counting pass per
   level. *)

type frequent = {
  itemset : Itemset.t;
  support : int;
}

(* Join step: two sorted k-itemsets sharing their first k-1 items produce a
   (k+1)-candidate. *)
let join (a : Itemset.t) (b : Itemset.t) : Itemset.t option =
  let k = Array.length a in
  let rec prefix_equal i = i >= k - 1 || (a.(i) = b.(i) && prefix_equal (i + 1)) in
  if k = 0 || not (prefix_equal 0) then None
  else if a.(k - 1) >= b.(k - 1) then None
  else begin
    let candidate = Array.make (k + 1) 0 in
    Array.blit a 0 candidate 0 k;
    candidate.(k) <- b.(k - 1);
    Some candidate
  end

(* Prune step: every immediate subset of a candidate must be frequent. *)
let all_subsets_frequent frequent_set candidate =
  List.for_all
    (fun sub -> Itemset.Tbl.mem frequent_set sub)
    (Itemset.immediate_subsets candidate)

let generate_candidates (level : Itemset.t array) : Itemset.t list =
  let frequent_set = Itemset.Tbl.create (Array.length level) in
  Array.iter (fun s -> Itemset.Tbl.replace frequent_set s ()) level;
  let candidates = ref [] in
  let n = Array.length level in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match join level.(i) level.(j) with
      | Some candidate ->
        if all_subsets_frequent frequent_set candidate then
          candidates := candidate :: !candidates
      | None -> ()
    done
  done;
  List.rev !candidates

(* [mine tx ~min_support] returns all frequent itemsets with absolute support
   >= min_support, level by level.  ~max_size bounds the itemset size. *)
let mine ?(max_size = max_int) (tx : Transactions.t) ~min_support : frequent list =
  if min_support <= 0 then invalid_arg "Apriori.mine: min_support must be positive";
  let frequencies = Transactions.item_frequencies tx in
  let level1 =
    frequencies
    |> Array.to_list
    |> List.mapi (fun id support -> (id, support))
    |> List.filter (fun (_, support) -> support >= min_support)
    |> List.map (fun (id, support) -> { itemset = [| id |]; support })
  in
  let results = ref (List.rev level1) in
  let rec loop level k =
    if k > max_size || Array.length level < 2 then ()
    else begin
      let candidates = generate_candidates level in
      if candidates <> [] then begin
        let counts = Itemset.Tbl.create (List.length candidates) in
        List.iter (fun c -> Itemset.Tbl.replace counts c 0) candidates;
        Transactions.iter
          (fun row ->
            List.iter
              (fun c ->
                if Itemset.subset c row then
                  Itemset.Tbl.replace counts c (Itemset.Tbl.find counts c + 1))
              candidates)
          tx;
        let survivors =
          List.filter_map
            (fun c ->
              let support = Itemset.Tbl.find counts c in
              if support >= min_support then Some { itemset = c; support } else None)
            candidates
        in
        results := List.rev_append survivors !results;
        loop (Array.of_list (List.map (fun f -> f.itemset) survivors)) (k + 1)
      end
    end
  in
  loop (Array.of_list (List.map (fun f -> f.itemset) level1)) 2;
  List.rev !results

(* Only the maximal frequent itemsets (no frequent superset). *)
let maximal (frequents : frequent list) : frequent list =
  List.filter
    (fun f ->
      not
        (List.exists
           (fun g ->
             Itemset.size g.itemset > Itemset.size f.itemset
             && Itemset.subset f.itemset g.itemset)
           frequents))
    frequents
