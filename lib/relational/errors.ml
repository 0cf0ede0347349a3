(* Engine-wide error reporting.  Every user-facing failure is one of the
   typed exceptions below, so callers never have to match on internal
   exceptions:

     Sql_error       classic phase-tagged failure (plan/execute/catalog)
     Parse_error     lex/parse failure carrying the offending token position
     Budget_exceeded a resource governor quota fired (see Budget)
     Cancelled       the query's cancellation token was pulled
     Internal        an engine invariant broke (a bug, not bad input) *)

type phase =
  | Lex
  | Parse
  | Plan
  | Execute
  | Catalog

type position = {
  offset : int;  (* byte offset of the offending token in the SQL text *)
  token : string;  (* the token as written, "<eof>" at end of input *)
}

type resource =
  | Rows
  | Tuples
  | Time

type budget_stats = {
  rows_out : int;
  tuples : int;
  ticks : int;
}

exception Sql_error of phase * string
exception Parse_error of { phase : phase; message : string; position : position }
exception Budget_exceeded of resource * budget_stats
exception Cancelled of budget_stats
exception Internal of string

let phase_to_string = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Plan -> "plan"
  | Execute -> "execute"
  | Catalog -> "catalog"

let resource_to_string = function
  | Rows -> "row quota"
  | Tuples -> "tuple quota"
  | Time -> "deadline"

let fail phase fmt = Fmt.kstr (fun msg -> raise (Sql_error (phase, msg))) fmt

let fail_at phase ~offset ~token fmt =
  Fmt.kstr
    (fun message -> raise (Parse_error { phase; message; position = { offset; token } }))
    fmt

let internal fmt = Fmt.kstr (fun msg -> raise (Internal msg)) fmt

let stats_to_string { rows_out; tuples; ticks } =
  Printf.sprintf "rows_out=%d tuples=%d ticks=%d" rows_out tuples ticks

let to_string = function
  | Sql_error (phase, msg) -> Printf.sprintf "%s error: %s" (phase_to_string phase) msg
  | Parse_error { phase; message; position } ->
    Printf.sprintf "%s error at offset %d near %S: %s" (phase_to_string phase)
      position.offset position.token message
  | Budget_exceeded (resource, stats) ->
    Printf.sprintf "query exceeded its %s (%s)" (resource_to_string resource)
      (stats_to_string stats)
  | Cancelled stats -> Printf.sprintf "query cancelled (%s)" (stats_to_string stats)
  | Internal msg -> Printf.sprintf "internal engine error: %s" msg
  | exn -> Printexc.to_string exn
