(** Growable array with amortised O(1) append and O(1) random access.

    OCaml 5.1's stdlib has no [Dynarray]; tables and audit stores need
    one. *)

type 'a t

val create : unit -> 'a t

val make : int -> 'a -> 'a t
(** [make capacity dummy] pre-allocates capacity; [dummy] is never
    observable. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Errors.Internal when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Errors.Internal when out of bounds. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element.
    @raise Errors.Internal when empty. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t
val copy : 'a t -> 'a t
