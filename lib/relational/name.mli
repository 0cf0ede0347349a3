(** SQL names: table, column and alias names and keywords, compared
    case-insensitively over ASCII.

    A name is folded to lower case where it is stored (schema columns,
    catalog keys, mapping keys).  A name being looked up is compared with
    a stored one in place: a comparison builds no folded copy and calls no
    polymorphic compare. *)

val equal : string -> string -> bool
(** [equal a b] is
    [String.equal (String.lowercase_ascii a) (String.lowercase_ascii b)].
    Against an upper-case keyword [kw] it is
    [String.equal (String.uppercase_ascii a) kw]. *)

val is_folded : string -> bool
(** Whether [s] holds no upper-case ASCII letter, i.e.
    [String.equal (String.lowercase_ascii s) s].  A stored name [n]
    matches a looked-up [s] the way
    [String.equal n (String.lowercase_ascii s)] does exactly when
    [equal n s && is_folded n]. *)

val fold : string -> string
(** [String.lowercase_ascii s], or [s] itself when it {!is_folded}. *)

module Tbl : Hashtbl.S with type key = string
(** Hash tables whose keys compare with {!equal} and hash over their
    folded bytes, so a lookup finds a key under any spelling without
    folding it. *)
