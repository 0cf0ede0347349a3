(* Definition 1: a RuleTerm is an (attr, value) pair — the atomic unit every
   policy notation maps onto.

   Terms are the unit of work in grounding and range algebra, so they carry
   a precomputed structural hash, and their strings are interned: every
   attr/value string that enters through [make] is replaced by a canonical
   copy.  Equal strings are then physically equal, which turns the common
   case of term comparison and equality into pointer checks. *)

type t = {
  attr : string;
  value : string;
  hash : int;
}

(* The intern table grows with every *distinct* string that enters a rule.
   Vocabulary values draw from small fixed alphabets, but audit rules also
   carry one timestamp per entry, so the table is reset wholesale once it
   reaches [intern_limit] — the same crude bound as [Rule.ground_cache].
   A reset only costs speed: strings interned before and after it are
   equal but not physically equal, and every comparison below falls back
   to [String.equal] / [String.compare] when the pointer check misses. *)
let intern_table : (string, string) Hashtbl.t = Hashtbl.create 1024
let intern_limit = 1 lsl 16

let intern s =
  match Hashtbl.find_opt intern_table s with
  | Some canonical -> canonical
  | None ->
    if Hashtbl.length intern_table >= intern_limit then Hashtbl.reset intern_table;
    Hashtbl.add intern_table s s;
    s

let interned () = Hashtbl.length intern_table

let combine_hash h1 h2 = (h1 * 0x01000193) lxor h2

let make ~attr ~value =
  let attr = intern attr in
  let value = intern value in
  { attr; value; hash = combine_hash (Hashtbl.hash attr) (Hashtbl.hash value) }

let attr t = t.attr

let value t = t.value

let hash t = t.hash

(* Syntactic identity, used to canonicalise ground rules.  Interning makes
   the [==] checks decisive for terms built through [make]; the [String.equal]
   fallback keeps the function correct regardless. *)
let equal_syntactic a b =
  a == b
  || (a.hash = b.hash
     && (a.attr == b.attr || String.equal a.attr b.attr)
     && (a.value == b.value || String.equal a.value b.value))

let compare a b =
  if a == b then 0
  else begin
    let c = if a.attr == b.attr then 0 else String.compare a.attr b.attr in
    if c <> 0 then c
    else if a.value == b.value then 0
    else String.compare a.value b.value
  end

(* Definition 2: ground iff the value is atomic w.r.t. the vocabulary. *)
let is_ground vocab t = Vocabulary.Vocab.is_ground vocab ~attr:t.attr ~value:t.value

(* Definition 3: the set RT' of ground terms derivable from this term. *)
let ground_set vocab t =
  List.map
    (fun value -> make ~attr:t.attr ~value)
    (Vocabulary.Vocab.ground_set vocab ~attr:t.attr ~value:t.value)

(* Definition 4: terms are equivalent iff their ground sets share a member
   with equal attr and value.  Terms over different attributes are never
   equivalent. *)
let equivalent vocab a b =
  String.equal a.attr b.attr
  && Vocabulary.Vocab.equivalent_values vocab ~attr:a.attr a.value b.value

let pp ppf t = Fmt.pf ppf "(%s, %s)" t.attr t.value
