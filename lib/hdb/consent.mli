(** Patient consent (choice) store.

    HIPAA-style defaults: uses are permitted unless the patient opted out;
    the default is configurable per store.  Choices are recorded at
    (patient, purpose, category) granularity, with composite vocabulary
    values covering their subtrees; the most recent matching record wins. *)

type choice =
  | Opt_in
  | Opt_out

type record = {
  patient : string;
  purpose : string;
  data : string;
  choice : choice;
}

type t

val create : ?default:choice -> vocab:Vocabulary.Vocab.t -> unit -> t
(** [default] applies when no record matches (defaults to {!Opt_in}). *)

val default : t -> choice
val record : t -> patient:string -> purpose:string -> data:string -> choice -> unit

val recorded_patients : t -> string list
(** Patients with at least one recorded choice, in no particular order. *)

val records : t -> record list
(** Grouped by patient; newest-first within a patient. *)

val choice_for : t -> patient:string -> purpose:string -> data:string -> choice
val permits : t -> patient:string -> purpose:string -> data:string -> bool

val opted_out_patients :
  t -> patients:string list -> purpose:string -> categories:string list -> string list
(** Patients who withheld consent for (purpose, any of [categories]) — the
    exclusion set Active Enforcement injects into rewritten queries. *)

val count : t -> int
(** Total records (including superseded ones). *)
