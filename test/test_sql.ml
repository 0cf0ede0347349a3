(* Tests for the SQL layer: lexer, parser, printer and the executor's query
   semantics (filters, aggregation, three-valued logic, joins, DML). *)

open Relational

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_engine () =
  let e = Engine.create () in
  ignore (Engine.exec e "CREATE TABLE t (a TEXT, b INTEGER, c REAL)");
  ignore
    (Engine.exec e
       "INSERT INTO t VALUES ('x', 1, 1.5), ('x', 2, 2.5), ('y', 3, 3.5), ('y', 4, NULL), ('z', NULL, 0.5)");
  e

let rows e sql = (Engine.query e sql).Executor.rows

let scalar e sql = Engine.query_scalar e sql

(* --- lexer --- *)

let test_lexer_basic () =
  let tokens = Sql_lexer.tokenize "SELECT a, b FROM t WHERE x >= 10.5 AND s = 'it''s'" in
  check_int "token count" 15 (List.length tokens) (* includes EOF *)

let test_lexer_operators () =
  let toks = Sql_lexer.tokenize "<> != <= >= || - -- comment" in
  check_bool "neq twice" true
    (List.filter (fun (t, _) -> t = Sql_lexer.Neq_tok) toks |> List.length = 2);
  check_bool "comment swallowed" true (List.length toks = 7)

let test_lexer_errors () =
  (match Sql_lexer.tokenize "'abc" with
  | exception Errors.Parse_error { phase = Errors.Lex; message; _ } ->
    check_string "unterminated string" "unterminated string literal" message
  | _ -> Alcotest.fail "expected lex error");
  match Sql_lexer.tokenize "a ! b" with
  | exception Errors.Parse_error { phase = Errors.Lex; message; _ } ->
    check_string "stray char" "unexpected character '!'" message
  | _ -> Alcotest.fail "expected lex error"

let test_lexer_positions () =
  (* Every token carries the byte offset of its first character. *)
  let toks = Sql_lexer.tokenize "SELECT ab, 'lit'" in
  (match toks with
  | [ (Sql_lexer.Ident "SELECT", 0); (Sql_lexer.Ident "ab", 7); (Sql_lexer.Comma, 9);
      (Sql_lexer.String_lit "lit", 11); (Sql_lexer.Eof, 16) ] -> ()
  | _ -> Alcotest.fail "unexpected token offsets");
  (* Lex errors point at the offending character... *)
  (match Sql_lexer.tokenize "ab !" with
  | exception Errors.Parse_error { position = { offset; token }; _ } ->
    check_int "lex error offset" 3 offset;
    check_string "lex error token" "!" token
  | _ -> Alcotest.fail "expected lex error");
  (* ...and parse errors at the offending token. *)
  let sql = "SELECT a FROM t WHERE" in
  match Sql_parser.parse_stmt sql with
  | exception Errors.Parse_error { phase = Errors.Parse; position = { offset; token }; _ } ->
    check_int "parse error offset" (String.length sql) offset;
    check_string "parse error token" "<eof>" token
  | _ -> Alcotest.fail "expected parse error"

let test_lexer_quoted_ident () =
  match Sql_lexer.tokenize "\"weird name\"" with
  | [ (Sql_lexer.Ident s, _); (Sql_lexer.Eof, _) ] -> check_string "quoted ident" "weird name" s
  | _ -> Alcotest.fail "expected single identifier"

(* --- parser / printer --- *)

let roundtrip sql = Sql_ast.to_sql (Sql_parser.parse_stmt sql)

let test_parse_select_shape () =
  match Sql_parser.parse_stmt "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) >= 5 AND COUNT(DISTINCT user) > 1" with
  | Sql_ast.Select s ->
    check_int "projections" 2 (List.length s.Sql_ast.projections);
    check_int "group by" 1 (List.length s.Sql_ast.group_by);
    check_bool "has having" true (Option.is_some s.Sql_ast.having)
  | _ -> Alcotest.fail "expected select"

let test_parse_precedence () =
  (* a OR b AND c parses as a OR (b AND c). *)
  match Sql_parser.parse_expr_string "a OR b AND c" with
  | Sql_ast.Binop (Sql_ast.Or, _, Sql_ast.Binop (Sql_ast.And, _, _)) -> ()
  | e -> Alcotest.failf "wrong shape: %s" (Sql_ast.expr_to_sql e)

let test_parse_arith_precedence () =
  match Sql_parser.parse_expr_string "1 + 2 * 3" with
  | Sql_ast.Binop (Sql_ast.Add, _, Sql_ast.Binop (Sql_ast.Mul, _, _)) -> ()
  | e -> Alcotest.failf "wrong shape: %s" (Sql_ast.expr_to_sql e)

let test_parse_not_in () =
  match Sql_parser.parse_expr_string "x NOT IN (1, 2)" with
  | Sql_ast.In_list { negated = true; items; _ } -> check_int "items" 2 (List.length items)
  | _ -> Alcotest.fail "expected NOT IN"

let test_parse_between_like_isnull () =
  (match Sql_parser.parse_expr_string "x BETWEEN 1 AND 5" with
  | Sql_ast.Between { negated = false; _ } -> ()
  | _ -> Alcotest.fail "between");
  (match Sql_parser.parse_expr_string "s NOT LIKE 'a%'" with
  | Sql_ast.Like { negated = true; _ } -> ()
  | _ -> Alcotest.fail "not like");
  match Sql_parser.parse_expr_string "x IS NOT NULL" with
  | Sql_ast.Is_null { negated = true; _ } -> ()
  | _ -> Alcotest.fail "is not null"

let test_parse_qualified_and_alias () =
  match Sql_parser.parse_stmt "SELECT t.a AS alpha FROM t AS u" with
  | Sql_ast.Select
      { projections = [ Sql_ast.Proj (Sql_ast.Col { qualifier = Some "t"; name = "a" }, Some "alpha") ];
        from = Some (Sql_ast.Table { name = "t"; alias = Some "u" });
        _
      } ->
    ()
  | _ -> Alcotest.fail "qualified/alias shape"

let test_parse_errors () =
  let expect_parse_error sql =
    match Sql_parser.parse_stmt sql with
    | exception Errors.Parse_error { phase = Errors.Parse; _ } -> ()
    | _ -> Alcotest.failf "expected parse error: %s" sql
  in
  expect_parse_error "SELECT";
  expect_parse_error "SELECT a FROM";
  expect_parse_error "SELECT a FROM t WHERE";
  expect_parse_error "INSERT INTO t VALUES";
  expect_parse_error "SELECT a FROM t extra garbage (";
  expect_parse_error "CREATE TABLE t (a BLOB)"

let fixpoint_cases =
  [ "SELECT DISTINCT a, b FROM t WHERE (a = 'x') ORDER BY b DESC LIMIT 3 OFFSET 1";
    "INSERT INTO t (a, b) VALUES ('q', 1)";
    "DELETE FROM t WHERE (b > 2)";
    "UPDATE t SET b = (b + 1) WHERE (a = 'x')";
    "CREATE TABLE u (x INTEGER, y TEXT)";
    "DROP TABLE u";
  ]

let test_roundtrip_statements () =
  List.iter
    (fun sql ->
      (* parse → print → parse → print must be a fixed point *)
      let once = roundtrip sql in
      let twice = roundtrip once in
      check_string ("fixpoint: " ^ sql) once twice)
    fixpoint_cases

(* The keywords (and type names) of the fixpoint statements are their
   upper-case identifiers; re-cased at random, each statement must parse
   to the same AST. *)
let recase_keywords flip sql =
  let bytes = Bytes.of_string sql in
  List.iter
    (fun (token, offset) ->
      match token with
      | Sql_lexer.Ident s when String.equal s (String.uppercase_ascii s) ->
        String.iteri
          (fun i c ->
            if flip () then Bytes.set bytes (offset + i) (Char.lowercase_ascii c))
          s
      | _ -> ())
    (Sql_lexer.tokenize sql);
  Bytes.to_string bytes

let prop_recased_keywords =
  QCheck2.Test.make ~name:"re-cased keywords parse to the same AST" ~count:300
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun sql ->
          let recased = recase_keywords (fun () -> Random.State.bool rng) sql in
          Sql_parser.parse_stmt recased = Sql_parser.parse_stmt sql
          || QCheck2.Test.fail_reportf "%s\nre-cased: %s" sql recased)
        fixpoint_cases)

(* Pinned: the lexer does not tell keywords from names, so a quoted
   identifier that spells one is still the keyword; names fold over ASCII
   only, so bytes >= 0x80 compare exactly. *)
let test_quoted_keyword_and_non_ascii () =
  let parse_error sql =
    match Sql_parser.parse_stmt sql with
    | exception Errors.Parse_error { phase = Errors.Parse; message; position = { offset; _ } } ->
      Printf.sprintf "%d: %s" offset message
    | _ -> Alcotest.failf "expected a parse error: %s" sql
  in
  check_string "quoted keyword as a column" "7: expected expression, found from"
    (parse_error "SELECT \"from\" FROM t");
  check_string "quoted keyword as a table" "13: expected identifier, found from"
    (parse_error "CREATE TABLE \"from\" (a TEXT)");
  (match Sql_lexer.tokenize "SELECT caf\xc3\xa9 FROM t" with
  | exception Errors.Parse_error { phase = Errors.Lex; message; position = { offset; _ } } ->
    check_string "bare non-ASCII identifier" "10: unexpected character '\\195'"
      (Printf.sprintf "%d: %s" offset message)
  | _ -> Alcotest.fail "expected a lex error");
  let e = Engine.create () in
  ignore (Engine.exec e "CREATE TABLE n (\"Caf\xc3\xa9\" TEXT)");
  ignore (Engine.exec e "INSERT INTO n VALUES ('v')");
  Alcotest.(check (list string)) "stored name folds ASCII only" [ "caf\xc3\xa9" ]
    (Schema.column_names (Table.schema (Engine.table e "N")));
  check_int "ASCII bytes fold" 1 (List.length (rows e "SELECT \"CAF\xc3\xa9\" FROM n"));
  match rows e "SELECT \"CAF\xc3\x89\" FROM n" with
  | exception Errors.Sql_error (_, message) ->
    check_string "non-ASCII bytes do not" "unknown column CAF\xc3\x89" message
  | _ -> Alcotest.fail "expected an unknown column"

(* --- names: the in-place comparisons against the folding ones they
   replaced (Test_support.Name_reference) --- *)

module Names = Test_support.Name_reference

(* Every keyword the parser tests for, spelled as it spells them. *)
let keywords = "ALL" :: Names.reserved

(* Bytes for names: letters of both cases, digits, '_', the pairs of
   non-letters that differ in bit 0x20 as letters' cases do ('@' and '`',
   '[' and '{', '_' and DEL), and bytes >= 0x80. *)
let gen_byte =
  QCheck2.Gen.(
    frequency
      [ (6, char_range 'a' 'z'); (6, char_range 'A' 'Z'); (2, char_range '0' '9');
        (2, oneofl [ '_'; '@'; '`'; '['; '{'; '\x7f' ]);
        (2, map Char.chr (int_range 0x80 0xff));
      ])

(* A spelling of [s]: each byte kept, upper- or lower-cased, or with bit
   0x20 flipped whatever it is. *)
let gen_respelling s =
  QCheck2.Gen.(
    map
      (fun ops ->
        String.mapi
          (fun i c ->
            match List.nth ops i with
            | 0 -> c
            | 1 -> Char.uppercase_ascii c
            | 2 -> Char.lowercase_ascii c
            | _ -> Char.chr (Char.code c lxor 0x20))
          s)
      (list_repeat (String.length s) (frequencyl [ (3, 0); (3, 1); (3, 2); (1, 3) ])))

(* Keywords re-spelled, their near misses ("SELEC", "SELECTS", one byte
   changed), random names and the empty string. *)
let gen_word =
  QCheck2.Gen.(
    let near_miss kw =
      let n = String.length kw in
      oneof
        [ return (String.sub kw 0 (n - 1));
          map (fun c -> kw ^ String.make 1 c) gen_byte;
          map2
            (fun i c -> String.mapi (fun j d -> if j = i then c else d) kw)
            (int_bound (n - 1)) gen_byte;
        ]
    in
    frequency
      [ (1, return "");
        (4, oneofl keywords >>= gen_respelling);
        (3, oneofl keywords >>= near_miss >>= gen_respelling);
        (3, string_size ~gen:gen_byte (int_range 1 8));
      ])

let prop_keyword_test =
  QCheck2.Test.make ~name:"keyword test = uppercase copy compared" ~count:2000
    ~print:QCheck2.Print.(pair string string)
    QCheck2.Gen.(pair gen_word (oneofl keywords))
    (fun (s, kw) -> Name.equal s kw = Names.keyword_equal s kw)

(* The parser's reserved-word test, read through the parser: a quoted
   identifier (the lexer reads any bytes but '"' as one) parses as a
   column exactly when it spells no reserved word. *)
let parses_as_column s =
  match Sql_parser.parse_expr_string ("\"" ^ s ^ "\"") with
  | Sql_ast.Col { qualifier = None; name } -> String.equal name s
  | _ | (exception Errors.Parse_error _) -> false

let prop_reserved =
  QCheck2.Test.make ~name:"reserved words = List.mem of the uppercase copy" ~count:2000
    ~print:QCheck2.Print.string gen_word (fun s ->
      parses_as_column s = not (Names.is_reserved s))

(* Schemas over a few base names so that lookups hit, miss and collide.
   A column is built by [Schema.column] (its name folded) or as a record
   literal holding the spelling as given; qualifiers are spelled freely. *)
let gen_schema_lookup =
  QCheck2.Gen.(
    let base = oneofl [ "a"; "b_1"; "pat"; "x\xc9"; "q@" ] in
    let qualifier = opt (oneofl [ "t"; "r"; "Rec" ] >>= gen_respelling) in
    let column =
      map3
        (fun name qualifier literal ->
          if literal then { Schema.name; ty = Value.T_string; qualifier }
          else Schema.column ?qualifier name Value.T_string)
        (base >>= gen_respelling) qualifier bool
    in
    triple
      (map Schema.of_list (list_size (int_range 0 6) column))
      qualifier
      (oneof [ base >>= gen_respelling; gen_word ]))

let prop_find_all =
  QCheck2.Test.make ~name:"Schema.find_all = the folding find_all" ~count:2000
    ~print:(fun (schema, qualifier, name) ->
      Fmt.str "%a ?qualifier:%s %S" Schema.pp schema
        (Option.value qualifier ~default:"-") name)
    gen_schema_lookup (fun (schema, qualifier, name) ->
      Schema.find_all schema ?qualifier name = Names.find_all schema ?qualifier name)

(* --- executor: filtering and projection --- *)

let test_where_filters () =
  let e = fresh_engine () in
  check_int "b >= 2" 3 (List.length (rows e "SELECT a FROM t WHERE b >= 2"))

let test_where_null_is_false () =
  let e = fresh_engine () in
  (* b is NULL on one row: comparison yields NULL which must not select. *)
  check_int "b > 0 skips null" 4 (List.length (rows e "SELECT a FROM t WHERE b > 0"));
  check_int "b IS NULL" 1 (List.length (rows e "SELECT a FROM t WHERE b IS NULL"))

let test_projection_expressions () =
  let e = fresh_engine () in
  check_bool "arith" true (scalar e "SELECT b * 10 FROM t WHERE a = 'x' AND b = 1" = Value.Int 10);
  check_bool "concat" true
    (scalar e "SELECT a || '!' FROM t WHERE b = 3" = Value.Str "y!");
  check_bool "function" true (scalar e "SELECT UPPER(a) FROM t WHERE b = 3" = Value.Str "Y")

let test_select_star_and_names () =
  let e = fresh_engine () in
  let rs = Engine.query e "SELECT * FROM t LIMIT 1" in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ]
    (Schema.column_names rs.Executor.schema);
  let rs2 = Engine.query e "SELECT b + 1 AS next, a FROM t LIMIT 1" in
  Alcotest.(check (list string)) "alias names" [ "next"; "a" ]
    (Schema.column_names rs2.Executor.schema)

let test_distinct () =
  let e = fresh_engine () in
  check_int "distinct a" 3 (List.length (rows e "SELECT DISTINCT a FROM t"))

let test_order_limit_offset () =
  let e = fresh_engine () in
  let got = rows e "SELECT b FROM t WHERE b IS NOT NULL ORDER BY b DESC LIMIT 2 OFFSET 1" in
  Alcotest.(check (list int))
    "values" [ 3; 2 ]
    (List.map (fun r -> Option.get (Value.as_int (Row.get r 0))) got)

let test_order_by_alias_and_position () =
  let e = fresh_engine () in
  let by_alias = rows e "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY n DESC, a" in
  check_bool "x first (2 rows)" true
    (Row.get (List.hd by_alias) 0 = Value.Str "x")

let test_like_in_between () =
  let e = fresh_engine () in
  check_int "like" 2 (List.length (rows e "SELECT a FROM t WHERE a LIKE 'x%' AND b IS NOT NULL"));
  check_int "in" 3 (List.length (rows e "SELECT a FROM t WHERE b IN (1, 2, 3)"));
  check_int "between" 2 (List.length (rows e "SELECT a FROM t WHERE b BETWEEN 2 AND 3"))

(* --- executor: aggregation --- *)

let test_global_aggregates () =
  let e = fresh_engine () in
  check_bool "count star" true (scalar e "SELECT COUNT(*) FROM t" = Value.Int 5);
  check_bool "count skips null" true (scalar e "SELECT COUNT(b) FROM t" = Value.Int 4);
  check_bool "sum" true (scalar e "SELECT SUM(b) FROM t" = Value.Int 10);
  check_bool "avg" true (scalar e "SELECT AVG(b) FROM t" = Value.Float 2.5);
  check_bool "min" true (scalar e "SELECT MIN(c) FROM t" = Value.Float 0.5);
  check_bool "max" true (scalar e "SELECT MAX(b) FROM t" = Value.Int 4)

let test_aggregate_empty_input () =
  let e = fresh_engine () in
  check_bool "count empty" true (scalar e "SELECT COUNT(*) FROM t WHERE b > 100" = Value.Int 0);
  check_bool "sum empty is null" true
    (scalar e "SELECT SUM(b) FROM t WHERE b > 100" = Value.Null)

let test_group_by_having () =
  let e = fresh_engine () in
  let got = rows e "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a" in
  check_int "two groups" 2 (List.length got);
  check_bool "x group" true (Row.get (List.hd got) 0 = Value.Str "x")

let test_count_distinct () =
  let e = fresh_engine () in
  ignore (Engine.exec e "CREATE TABLE d (u TEXT)");
  ignore (Engine.exec e "INSERT INTO d VALUES ('m'), ('m'), ('n'), ('m')");
  check_bool "distinct users" true (scalar e "SELECT COUNT(DISTINCT u) FROM d" = Value.Int 2)

let test_aggregate_in_where_rejected () =
  let e = fresh_engine () in
  match rows e "SELECT a FROM t WHERE COUNT(*) > 1" with
  | exception Errors.Sql_error (Errors.Plan, _) -> ()
  | _ -> Alcotest.fail "expected plan error"

let test_group_by_expression () =
  let e = fresh_engine () in
  let got = rows e "SELECT b % 2, COUNT(*) FROM t WHERE b IS NOT NULL GROUP BY b % 2 ORDER BY 1" in
  check_int "parity groups" 2 (List.length got)

(* --- executor: joins --- *)

let join_engine () =
  let e = fresh_engine () in
  ignore (Engine.exec e "CREATE TABLE labels (a TEXT, label TEXT)");
  ignore (Engine.exec e "INSERT INTO labels VALUES ('x', 'ex'), ('y', 'why')");
  e

let test_inner_join () =
  let e = join_engine () in
  let got = rows e "SELECT t.b, labels.label FROM t JOIN labels ON t.a = labels.a ORDER BY t.b" in
  check_int "matched rows" 4 (List.length got)

let test_left_join () =
  let e = join_engine () in
  let got =
    rows e
      "SELECT t.a, labels.label FROM t LEFT JOIN labels ON t.a = labels.a WHERE labels.label IS NULL"
  in
  (* only the 'z' row lacks a label *)
  check_int "unmatched" 1 (List.length got);
  check_bool "z row" true (Row.get (List.hd got) 0 = Value.Str "z")

let test_cross_join () =
  let e = join_engine () in
  check_int "cartesian" 10 (List.length (rows e "SELECT t.a FROM t CROSS JOIN labels"))

let test_comma_join () =
  let e = join_engine () in
  check_int "comma cartesian" 10
    (List.length (rows e "SELECT t.a FROM t, labels"))

(* --- executor: DML / DDL --- *)

let test_insert_columns_subset () =
  let e = fresh_engine () in
  ignore (Engine.exec e "INSERT INTO t (a) VALUES ('w')");
  check_int "null filled" 1 (List.length (rows e "SELECT a FROM t WHERE a = 'w' AND b IS NULL"))

let test_delete_update () =
  let e = fresh_engine () in
  check_int "deleted" 2 (Engine.command e "DELETE FROM t WHERE a = 'x'");
  check_int "updated" 1 (Engine.command e "UPDATE t SET b = 99 WHERE a = 'z'");
  check_bool "updated value" true (scalar e "SELECT b FROM t WHERE a = 'z'" = Value.Int 99)

let test_unknown_table_and_column () =
  let e = fresh_engine () in
  (match rows e "SELECT a FROM missing" with
  | exception Errors.Sql_error (Errors.Catalog, _) -> ()
  | _ -> Alcotest.fail "expected catalog error");
  match rows e "SELECT nope FROM t" with
  | exception Errors.Sql_error (Errors.Plan, _) -> ()
  | _ -> Alcotest.fail "expected plan error"

let test_division_by_zero () =
  let e = fresh_engine () in
  match rows e "SELECT b / 0 FROM t WHERE b = 1" with
  | exception Errors.Sql_error (Errors.Execute, "division by zero") -> ()
  | _ -> Alcotest.fail "expected division by zero"

let test_scalar_functions () =
  let e = fresh_engine () in
  check_bool "coalesce" true
    (scalar e "SELECT COALESCE(b, 0) FROM t WHERE b IS NULL" = Value.Int 0);
  check_bool "substr" true (scalar e "SELECT SUBSTR('hello', 2, 3) FROM t LIMIT 1" = Value.Str "ell");
  check_bool "length" true (scalar e "SELECT LENGTH(a) FROM t WHERE b = 1" = Value.Int 1);
  check_bool "nullif" true (scalar e "SELECT NULLIF(1, 1) FROM t LIMIT 1" = Value.Null)

let test_three_valued_logic () =
  let e = fresh_engine () in
  (* NULL AND FALSE = FALSE, NULL OR TRUE = TRUE — the row with b NULL. *)
  check_int "null or true" 5
    (List.length (rows e "SELECT a FROM t WHERE b > 0 OR TRUE"));
  check_int "null and false" 0
    (List.length (rows e "SELECT a FROM t WHERE b > 0 AND FALSE"));
  check_int "not null is null" 4 (List.length (rows e "SELECT a FROM t WHERE NOT (b IS NULL)"))

let test_select_without_from () =
  let e = Engine.create () in
  check_bool "constant" true (scalar e "SELECT 1 + 2" = Value.Int 3)

(* --- subqueries --- *)

let test_in_subquery () =
  let e = join_engine () in
  let got = rows e "SELECT b FROM t WHERE a IN (SELECT a FROM labels) ORDER BY b" in
  check_int "labelled rows" 4 (List.length got)

let test_not_in_subquery () =
  let e = join_engine () in
  let got = rows e "SELECT a FROM t WHERE a NOT IN (SELECT a FROM labels)" in
  check_int "only z" 1 (List.length got);
  check_bool "z" true (Row.get (List.hd got) 0 = Value.Str "z")

let test_subquery_with_predicate () =
  let e = join_engine () in
  let got =
    rows e "SELECT b FROM t WHERE a IN (SELECT a FROM labels WHERE label = 'ex')"
  in
  check_int "x rows" 2 (List.length got)

let test_subquery_in_having () =
  let e = join_engine () in
  let got =
    rows e
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING MIN(a) IN (SELECT a FROM labels)"
  in
  check_int "two groups" 2 (List.length got)

let test_subquery_arity_checked () =
  let e = join_engine () in
  match rows e "SELECT b FROM t WHERE a IN (SELECT a, label FROM labels)" with
  | exception Errors.Sql_error (Errors.Plan, _) -> ()
  | _ -> Alcotest.fail "expected plan error"

let test_subquery_prints () =
  let stmt = Sql_parser.parse_stmt "SELECT a FROM t WHERE a IN (SELECT a FROM labels)" in
  let sql = Sql_ast.to_sql stmt in
  check_string "printed" "SELECT a FROM t WHERE a IN (SELECT a FROM labels)" sql

let test_exists () =
  let e = join_engine () in
  check_int "exists true keeps all" 5
    (List.length (rows e "SELECT a FROM t WHERE EXISTS (SELECT a FROM labels)"));
  check_int "exists false drops all" 0
    (List.length
       (rows e "SELECT a FROM t WHERE EXISTS (SELECT a FROM labels WHERE label = 'nope')"));
  check_int "not exists" 5
    (List.length
       (rows e
          "SELECT a FROM t WHERE NOT EXISTS (SELECT a FROM labels WHERE label = 'nope')"))

let test_scalar_subquery () =
  let e = join_engine () in
  check_bool "scalar count" true
    (scalar e "SELECT (SELECT COUNT(*) FROM labels)" = Value.Int 2);
  check_bool "scalar in predicate" true
    (List.length (rows e "SELECT a FROM t WHERE b = (SELECT MIN(b) FROM t)") = 1);
  check_bool "empty scalar is null" true
    (scalar e "SELECT (SELECT label FROM labels WHERE label = 'nope')" = Value.Null);
  match rows e "SELECT a FROM t WHERE b = (SELECT b FROM t WHERE b IS NOT NULL)" with
  | exception Errors.Sql_error (Errors.Execute, _) -> ()
  | _ -> Alcotest.fail "expected multi-row scalar error"

(* --- more executor edge cases --- *)

let test_order_by_nulls_first () =
  let e = fresh_engine () in
  let got = rows e "SELECT b FROM t ORDER BY b" in
  check_bool "null sorts first" true (Row.get (List.hd got) 0 = Value.Null)

let test_limit_zero_and_overshoot () =
  let e = fresh_engine () in
  check_int "limit 0" 0 (List.length (rows e "SELECT a FROM t LIMIT 0"));
  check_int "limit beyond" 5 (List.length (rows e "SELECT a FROM t LIMIT 99"));
  check_int "offset beyond" 0 (List.length (rows e "SELECT a FROM t LIMIT 5 OFFSET 99"))

let test_distinct_on_expression () =
  let e = fresh_engine () in
  check_int "distinct parity" 2
    (List.length (rows e "SELECT DISTINCT b % 2 FROM t WHERE b IS NOT NULL"))

let test_count_distinct_skips_null () =
  let e = fresh_engine () in
  check_bool "nulls not counted" true
    (scalar e "SELECT COUNT(DISTINCT b) FROM t" = Value.Int 4)

let test_order_by_aggregate_not_projected () =
  let e = fresh_engine () in
  let got = rows e "SELECT a FROM t GROUP BY a ORDER BY COUNT(*) DESC, a ASC" in
  check_int "three groups" 3 (List.length got)

let test_like_underscore () =
  let e = Engine.create () in
  check_bool "underscore" true (scalar e "SELECT 'cat' LIKE 'c_t'" = Value.Bool true);
  check_bool "percent middle" true (scalar e "SELECT 'clinic' LIKE 'c%c'" = Value.Bool true);
  check_bool "no match" true (scalar e "SELECT 'cat' LIKE 'c_'" = Value.Bool false)

let test_between_empty_range () =
  let e = fresh_engine () in
  check_int "hi < lo matches nothing" 0
    (List.length (rows e "SELECT a FROM t WHERE b BETWEEN 3 AND 1"))

let test_update_unknown_column () =
  let e = fresh_engine () in
  match Engine.command e "UPDATE t SET nope = 1" with
  | exception Errors.Sql_error (Errors.Plan, _) -> ()
  | _ -> Alcotest.fail "expected plan error"

let test_insert_too_many_values () =
  let e = fresh_engine () in
  match Engine.command e "INSERT INTO t (a) VALUES ('x', 1)" with
  | exception Errors.Sql_error (Errors.Execute, _) -> ()
  | _ -> Alcotest.fail "expected execute error"

let test_having_filters_groups () =
  let e = fresh_engine () in
  let got = rows e "SELECT a FROM t GROUP BY a HAVING SUM(b) >= 3 ORDER BY a" in
  (* x: 1+2=3; y: 3 (+null); z: null sum -> NULL >= 3 is unknown, dropped *)
  check_int "two survive" 2 (List.length got)

(* --- derived tables --- *)

let test_derived_table_basic () =
  let e = fresh_engine () in
  let got =
    rows e "SELECT d.a FROM (SELECT a, b FROM t WHERE b >= 2) AS d WHERE d.b <= 3"
  in
  check_int "inner+outer filters" 2 (List.length got)

let test_derived_table_aggregate_inside () =
  let e = fresh_engine () in
  let got =
    rows e
      "SELECT g.a FROM (SELECT a, COUNT(*) AS n FROM t GROUP BY a) AS g WHERE g.n > 1 ORDER BY g.a"
  in
  check_int "two groups" 2 (List.length got)

let test_derived_table_join () =
  let e = join_engine () in
  let got =
    rows e
      "SELECT d.a, labels.label FROM (SELECT DISTINCT a FROM t) AS d JOIN labels ON d.a = labels.a"
  in
  check_int "joined" 2 (List.length got)

let test_derived_table_requires_alias () =
  match Sql_parser.parse_stmt "SELECT a FROM (SELECT a FROM t)" with
  | exception Errors.Parse_error { phase = Errors.Parse; _ } -> ()
  | _ -> Alcotest.fail "expected parse error (alias required)"

let test_derived_table_prints () =
  let sql = "SELECT d.a FROM (SELECT a FROM t) AS d" in
  check_string "roundtrip" sql (Sql_ast.to_sql (Sql_parser.parse_stmt sql))

let test_derived_table_rejected_under_enforcement () =
  let vocab = Vocabulary.Samples.figure1 () in
  let control = Hdb.Control_center.create ~vocab () in
  ignore (Hdb.Control_center.admin_exec control "CREATE TABLE recs (patient TEXT, psy TEXT)");
  Hdb.Control_center.map_column control ~table:"recs" ~column:"psy" ~category:"psychiatry";
  match
    Hdb.Control_center.query control ~user:"u" ~role:"nurse" ~purpose:"treatment"
      "SELECT d.psy FROM (SELECT psy FROM recs) AS d"
  with
  | Error (Hdb.Enforcement.Unsupported _) -> ()
  | _ -> Alcotest.fail "derived table must be rejected under enforcement"

(* --- union --- *)

let test_union_dedupes () =
  let e = join_engine () in
  check_int "union distinct" 3
    (List.length (rows e "SELECT a FROM t UNION SELECT a FROM labels"))

let test_union_all_keeps_duplicates () =
  let e = join_engine () in
  check_int "union all" 7
    (List.length (rows e "SELECT a FROM t UNION ALL SELECT a FROM labels"))

let test_union_chain_mixed () =
  let e = join_engine () in
  (* any plain UNION in the chain deduplicates the whole result *)
  check_int "mixed chain" 3
    (List.length
       (rows e "SELECT a FROM t UNION ALL SELECT a FROM labels UNION SELECT a FROM t"))

let test_union_arity_checked () =
  let e = join_engine () in
  match rows e "SELECT a, b FROM t UNION SELECT a FROM labels" with
  | exception Errors.Sql_error (Errors.Plan, _) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_union_prints () =
  let sql = "SELECT a FROM t UNION ALL SELECT a FROM labels" in
  check_string "roundtrip" sql (Sql_ast.to_sql (Sql_parser.parse_stmt sql))

(* --- index pushdown --- *)

let indexed_and_plain () =
  let plain = join_engine () in
  let indexed = join_engine () in
  Relational.Table.create_index (Engine.table indexed "t") ~column_name:"a";
  Relational.Table.create_index (Engine.table indexed "t") ~column_name:"b";
  (plain, indexed)

let test_index_probe_equivalence () =
  let plain, indexed = indexed_and_plain () in
  let queries =
    [ "SELECT a, b FROM t WHERE a = 'x'";
      "SELECT a, b FROM t WHERE a = 'x' AND b >= 2";
      "SELECT a, b FROM t WHERE 'y' = a";
      "SELECT a, b FROM t WHERE a = 'missing'";
      "SELECT a, COUNT(*) FROM t WHERE a = 'x' GROUP BY a";
      "SELECT a FROM t WHERE b = 3";
      "SELECT a FROM t WHERE a = NULL";
    ]
  in
  List.iter
    (fun sql ->
      let expected = (Engine.query plain sql).Executor.rows in
      let got = (Engine.query indexed sql).Executor.rows in
      check_bool ("same result: " ^ sql) true
        (List.equal Row.equal expected got))
    queries

let test_index_probe_type_mismatch () =
  let _, indexed = indexed_and_plain () in
  (* b is INTEGER; probing with a fractional literal matches nothing. *)
  check_int "fractional probe" 0 (List.length (rows indexed "SELECT a FROM t WHERE b = 2.5"));
  check_int "coercible probe" 1 (List.length (rows indexed "SELECT a FROM t WHERE b = 2.0"))

let test_index_probe_sees_new_rows () =
  let _, indexed = indexed_and_plain () in
  ignore (Engine.exec indexed "INSERT INTO t VALUES ('x', 9, 9.0)");
  check_int "fresh row via index" 3
    (List.length (rows indexed "SELECT a FROM t WHERE a = 'x' AND b IS NOT NULL"))

let () =
  Alcotest.run "sql"
    [ ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "operators/comments" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "quoted ident" `Quick test_lexer_quoted_ident;
        ] );
      ( "parser",
        [ Alcotest.test_case "select shape" `Quick test_parse_select_shape;
          Alcotest.test_case "bool precedence" `Quick test_parse_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
          Alcotest.test_case "not in" `Quick test_parse_not_in;
          Alcotest.test_case "between/like/is null" `Quick test_parse_between_like_isnull;
          Alcotest.test_case "qualified/alias" `Quick test_parse_qualified_and_alias;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "print fixpoint" `Quick test_roundtrip_statements;
          QCheck_alcotest.to_alcotest prop_recased_keywords;
          Alcotest.test_case "quoted keyword, non-ASCII name" `Quick
            test_quoted_keyword_and_non_ascii;
        ] );
      ( "names",
        [ QCheck_alcotest.to_alcotest prop_keyword_test;
          QCheck_alcotest.to_alcotest prop_reserved;
          QCheck_alcotest.to_alcotest prop_find_all;
        ] );
      ( "select",
        [ Alcotest.test_case "where" `Quick test_where_filters;
          Alcotest.test_case "null predicate" `Quick test_where_null_is_false;
          Alcotest.test_case "projection exprs" `Quick test_projection_expressions;
          Alcotest.test_case "star & names" `Quick test_select_star_and_names;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "order/limit/offset" `Quick test_order_limit_offset;
          Alcotest.test_case "order by alias" `Quick test_order_by_alias_and_position;
          Alcotest.test_case "like/in/between" `Quick test_like_in_between;
          Alcotest.test_case "3-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "no FROM" `Quick test_select_without_from;
          Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
        ] );
      ( "aggregate",
        [ Alcotest.test_case "global" `Quick test_global_aggregates;
          Alcotest.test_case "empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "group/having" `Quick test_group_by_having;
          Alcotest.test_case "count distinct" `Quick test_count_distinct;
          Alcotest.test_case "agg in where rejected" `Quick test_aggregate_in_where_rejected;
          Alcotest.test_case "group by expr" `Quick test_group_by_expression;
        ] );
      ( "join",
        [ Alcotest.test_case "inner" `Quick test_inner_join;
          Alcotest.test_case "left" `Quick test_left_join;
          Alcotest.test_case "cross" `Quick test_cross_join;
          Alcotest.test_case "comma" `Quick test_comma_join;
        ] );
      ( "subquery",
        [ Alcotest.test_case "in subquery" `Quick test_in_subquery;
          Alcotest.test_case "not in subquery" `Quick test_not_in_subquery;
          Alcotest.test_case "with predicate" `Quick test_subquery_with_predicate;
          Alcotest.test_case "in having" `Quick test_subquery_in_having;
          Alcotest.test_case "arity checked" `Quick test_subquery_arity_checked;
          Alcotest.test_case "prints" `Quick test_subquery_prints;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
        ] );
      ( "edge-cases",
        [ Alcotest.test_case "order by nulls first" `Quick test_order_by_nulls_first;
          Alcotest.test_case "limit 0/overshoot" `Quick test_limit_zero_and_overshoot;
          Alcotest.test_case "distinct expression" `Quick test_distinct_on_expression;
          Alcotest.test_case "count distinct nulls" `Quick test_count_distinct_skips_null;
          Alcotest.test_case "order by unprojected agg" `Quick
            test_order_by_aggregate_not_projected;
          Alcotest.test_case "like underscore" `Quick test_like_underscore;
          Alcotest.test_case "empty between" `Quick test_between_empty_range;
          Alcotest.test_case "update unknown column" `Quick test_update_unknown_column;
          Alcotest.test_case "insert too many values" `Quick test_insert_too_many_values;
          Alcotest.test_case "having drops null groups" `Quick test_having_filters_groups;
        ] );
      ( "derived-tables",
        [ Alcotest.test_case "basic" `Quick test_derived_table_basic;
          Alcotest.test_case "aggregate inside" `Quick test_derived_table_aggregate_inside;
          Alcotest.test_case "join" `Quick test_derived_table_join;
          Alcotest.test_case "alias required" `Quick test_derived_table_requires_alias;
          Alcotest.test_case "prints" `Quick test_derived_table_prints;
          Alcotest.test_case "rejected under enforcement" `Quick
            test_derived_table_rejected_under_enforcement;
        ] );
      ( "union",
        [ Alcotest.test_case "dedupes" `Quick test_union_dedupes;
          Alcotest.test_case "all keeps duplicates" `Quick test_union_all_keeps_duplicates;
          Alcotest.test_case "mixed chain" `Quick test_union_chain_mixed;
          Alcotest.test_case "arity checked" `Quick test_union_arity_checked;
          Alcotest.test_case "prints" `Quick test_union_prints;
        ] );
      ( "index-pushdown",
        [ Alcotest.test_case "probe equivalence" `Quick test_index_probe_equivalence;
          Alcotest.test_case "type mismatch" `Quick test_index_probe_type_mismatch;
          Alcotest.test_case "sees new rows" `Quick test_index_probe_sees_new_rows;
        ] );
      ( "dml",
        [ Alcotest.test_case "insert subset" `Quick test_insert_columns_subset;
          Alcotest.test_case "delete/update" `Quick test_delete_update;
          Alcotest.test_case "unknown names" `Quick test_unknown_table_and_column;
          Alcotest.test_case "div by zero" `Quick test_division_by_zero;
        ] );
    ]
