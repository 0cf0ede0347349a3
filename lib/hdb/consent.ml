(* Patient consent (choice) store.  HIPAA-style defaults: uses for
   treatment/payment/operations are permitted unless the patient opted out;
   the default is configurable per store.  Choices are recorded at
   (patient, purpose, category) granularity, with composite vocabulary
   values covering their subtrees. *)

type choice =
  | Opt_in
  | Opt_out

type record = {
  patient : string;
  purpose : string;
  data : string;
  choice : choice;
}

type t = {
  vocab : Vocabulary.Vocab.t;
  default : choice;
  by_patient : (string, record list) Hashtbl.t; (* newest-first per patient *)
  mutable total : int;
}

let create ?(default = Opt_in) ~vocab () =
  { vocab; default; by_patient = Hashtbl.create 64; total = 0 }

let default t = t.default

let record t ~patient ~purpose ~data choice =
  let existing = Option.value (Hashtbl.find_opt t.by_patient patient) ~default:[] in
  Hashtbl.replace t.by_patient patient ({ patient; purpose; data; choice } :: existing);
  t.total <- t.total + 1

let recorded_patients t = Hashtbl.fold (fun patient _ acc -> patient :: acc) t.by_patient []

let records t =
  Hashtbl.fold (fun _ rs acc -> List.rev_append rs acc) t.by_patient []
  |> List.sort (fun a b -> String.compare a.patient b.patient)

(* Most recent matching record for the patient wins. *)
let choice_for t ~patient ~purpose ~data =
  let matches r =
    Vocabulary.Vocab.subsumes_value t.vocab ~attr:Vocabulary.Samples.attr_purpose
      ~ancestor:r.purpose ~descendant:purpose
    && Vocabulary.Vocab.subsumes_value t.vocab ~attr:Vocabulary.Samples.attr_data
         ~ancestor:r.data ~descendant:data
  in
  match Hashtbl.find_opt t.by_patient patient with
  | None -> t.default
  | Some rs ->
    (match List.find_opt matches rs with
    | Some r -> r.choice
    | None -> t.default)

let permits t ~patient ~purpose ~data = choice_for t ~patient ~purpose ~data = Opt_in

(* Patients among [patients] who opted out of (purpose, any of categories):
   the exclusion set Active Enforcement injects into rewritten queries.
   With an opt-in default, patients without records can never be excluded,
   so only recorded patients are examined. *)
let opted_out_patients t ~patients ~purpose ~categories =
  let blocked patient =
    List.exists (fun data -> not (permits t ~patient ~purpose ~data)) categories
  in
  if t.default = Opt_in then
    List.filter (fun p -> Hashtbl.mem t.by_patient p && blocked p) patients
  else List.filter blocked patients

let count t = t.total
