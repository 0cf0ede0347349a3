(* Recursive-descent parser with precedence climbing.

   Grammar (informal):
     stmt     := select | create | drop | insert | delete | update
     select   := SELECT [DISTINCT] projs [FROM from] [WHERE e] [GROUP BY es]
                 [HAVING e] [ORDER BY e [ASC|DESC], ...] [LIMIT n [OFFSET n]]
     from     := table_ref (("," | [LEFT|CROSS] JOIN) table_ref [ON e])*
     e        := or-precedence expression with NOT, comparisons, IN, LIKE,
                 IS [NOT] NULL, BETWEEN, arithmetic, '||', function calls
   Aggregates (COUNT/SUM/AVG/MIN/MAX) parse as [Agg] nodes; COUNT star and
   COUNT(DISTINCT e) are supported. *)

open Sql_lexer

(* The token stream keeps each token's byte offset so parse failures can
   point at the offending token. *)
type state = {
  mutable tokens : (token * int) list;
}

let peek st = match st.tokens with [] -> Eof | (t, _) :: _ -> t

let peek_pos st = match st.tokens with [] -> 0 | (_, p) :: _ -> p

let peek2 st = match st.tokens with _ :: (t, _) :: _ -> t | _ -> Eof

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let fail_tok st expected =
  let found = peek st in
  Errors.fail_at Errors.Parse ~offset:(peek_pos st) ~token:(token_to_string found)
    "expected %s, found %s" expected (token_to_string found)

let expect st token name =
  if peek st = token then advance st else fail_tok st name

(* Keywords are spelled in upper case here, so [Name.equal s kw] is
   [String.uppercase_ascii s = kw]. *)
let is_kw st kw =
  match peek st with
  | Ident s -> Name.equal s kw
  | _ -> false

(* Consume the keyword if present; return whether it was. *)
let accept_kw st kw =
  if is_kw st kw then begin
    advance st;
    true
  end
  else false

let expect_kw st kw = if not (accept_kw st kw) then fail_tok st kw

let reserved = Name.Tbl.create 64

let () =
  List.iter
    (fun kw -> Name.Tbl.replace reserved kw ())
    [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "OFFSET";
      "AND"; "OR"; "NOT"; "AS"; "ON"; "JOIN"; "LEFT"; "CROSS"; "INNER"; "BY";
      "ASC"; "DESC"; "IN"; "LIKE"; "IS"; "NULL"; "BETWEEN"; "DISTINCT"; "VALUES";
      "INSERT"; "INTO"; "DELETE"; "UPDATE"; "SET"; "CREATE"; "DROP"; "TABLE";
      "TRUE"; "FALSE"; "UNION"; "EXISTS" ]

let is_reserved s = Name.Tbl.mem reserved s

let parse_ident st =
  match peek st with
  | Ident s when not (is_reserved s) ->
    advance st;
    s
  | _ -> fail_tok st "identifier"

let agg_of_name s =
  match String.uppercase_ascii s with
  | "COUNT" -> Some Sql_ast.Count
  | "SUM" -> Some Sql_ast.Sum
  | "AVG" -> Some Sql_ast.Avg
  | "MIN" -> Some Sql_ast.Min
  | "MAX" -> Some Sql_ast.Max
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if accept_kw st "OR" then Sql_ast.Binop (Sql_ast.Or, left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if accept_kw st "AND" then Sql_ast.Binop (Sql_ast.And, left, parse_and st) else left

and parse_not st =
  if accept_kw st "NOT" then Sql_ast.Unop (Sql_ast.Not, parse_not st)
  else parse_predicate st

and parse_predicate st =
  let scrutinee = parse_additive st in
  match peek st with
  | Eq_tok -> advance st; Sql_ast.Binop (Sql_ast.Eq, scrutinee, parse_additive st)
  | Neq_tok -> advance st; Sql_ast.Binop (Sql_ast.Neq, scrutinee, parse_additive st)
  | Lt_tok -> advance st; Sql_ast.Binop (Sql_ast.Lt, scrutinee, parse_additive st)
  | Le_tok -> advance st; Sql_ast.Binop (Sql_ast.Le, scrutinee, parse_additive st)
  | Gt_tok -> advance st; Sql_ast.Binop (Sql_ast.Gt, scrutinee, parse_additive st)
  | Ge_tok -> advance st; Sql_ast.Binop (Sql_ast.Ge, scrutinee, parse_additive st)
  | Ident _ ->
    if is_kw st "IS" then begin
      advance st;
      let negated = accept_kw st "NOT" in
      expect_kw st "NULL";
      Sql_ast.Is_null { scrutinee; negated }
    end
    else begin
      let negated = is_kw st "NOT" && (match peek2 st with
        | Ident s -> Name.equal s "IN" || Name.equal s "LIKE" || Name.equal s "BETWEEN"
        | _ -> false)
      in
      if negated then advance st;
      if accept_kw st "IN" then begin
        expect st Lparen "(";
        if is_kw st "SELECT" then begin
          let select = parse_select st in
          expect st Rparen ")";
          Sql_ast.In_select { scrutinee; negated; select }
        end
        else begin
          let items = parse_expr_list st in
          expect st Rparen ")";
          Sql_ast.In_list { scrutinee; negated; items }
        end
      end
      else if accept_kw st "LIKE" then
        Sql_ast.Like { scrutinee; negated; pattern = parse_additive st }
      else if accept_kw st "BETWEEN" then begin
        let low = parse_additive st in
        expect_kw st "AND";
        let high = parse_additive st in
        Sql_ast.Between { scrutinee; negated; low; high }
      end
      else if negated then fail_tok st "IN, LIKE or BETWEEN"
      else scrutinee
    end
  | _ -> scrutinee

and parse_additive st =
  let rec go left =
    match peek st with
    | Plus -> advance st; go (Sql_ast.Binop (Sql_ast.Add, left, parse_multiplicative st))
    | Minus -> advance st; go (Sql_ast.Binop (Sql_ast.Sub, left, parse_multiplicative st))
    | Concat_tok ->
      advance st;
      go (Sql_ast.Binop (Sql_ast.Concat, left, parse_multiplicative st))
    | _ -> left
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go left =
    match peek st with
    | Star_tok -> advance st; go (Sql_ast.Binop (Sql_ast.Mul, left, parse_unary st))
    | Slash -> advance st; go (Sql_ast.Binop (Sql_ast.Div, left, parse_unary st))
    | Percent -> advance st; go (Sql_ast.Binop (Sql_ast.Mod, left, parse_unary st))
    | _ -> left
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Minus ->
    advance st;
    Sql_ast.Unop (Sql_ast.Neg, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Int_lit i -> advance st; Sql_ast.Lit (Value.Int i)
  | Float_lit f -> advance st; Sql_ast.Lit (Value.Float f)
  | String_lit s -> advance st; Sql_ast.Lit (Value.Str s)
  | Lparen ->
    advance st;
    if is_kw st "SELECT" then begin
      let select = parse_select st in
      expect st Rparen ")";
      Sql_ast.Scalar_select select
    end
    else begin
      let e = parse_expr st in
      expect st Rparen ")";
      e
    end
  | Star_tok ->
    advance st;
    Sql_ast.Star
  | Ident s when Name.equal s "EXISTS" ->
    advance st;
    expect st Lparen "(";
    if not (is_kw st "SELECT") then fail_tok st "SELECT";
    let select = parse_select st in
    expect st Rparen ")";
    Sql_ast.Exists select
  | Ident s when Name.equal s "NULL" -> advance st; Sql_ast.Lit Value.Null
  | Ident s when Name.equal s "TRUE" -> advance st; Sql_ast.Lit (Value.Bool true)
  | Ident s when Name.equal s "FALSE" ->
    advance st;
    Sql_ast.Lit (Value.Bool false)
  | Ident s when not (is_reserved s) ->
    advance st;
    (match peek st with
    | Lparen ->
      advance st;
      parse_call st s
    | Dot ->
      advance st;
      let name = parse_ident st in
      Sql_ast.Col { qualifier = Some s; name }
    | _ -> Sql_ast.Col { qualifier = None; name = s })
  | _ -> fail_tok st "expression"

(* Called after consuming 'name('. *)
and parse_call st name =
  let finish e =
    expect st Rparen ")";
    e
  in
  match agg_of_name name with
  | Some fn ->
    if peek st = Star_tok then begin
      advance st;
      finish (Sql_ast.Agg { fn; distinct = false; arg = Sql_ast.Star })
    end
    else begin
      let distinct = accept_kw st "DISTINCT" in
      let arg = parse_expr st in
      finish (Sql_ast.Agg { fn; distinct; arg })
    end
  | None ->
    if peek st = Rparen then finish (Sql_ast.Call (String.lowercase_ascii name, []))
    else begin
      let args = parse_expr_list st in
      finish (Sql_ast.Call (String.lowercase_ascii name, args))
    end

and parse_expr_list st =
  let first = parse_expr st in
  let rec go acc =
    if peek st = Comma then begin
      advance st;
      go (parse_expr st :: acc)
    end
    else List.rev acc
  in
  go [ first ]

and parse_projection st =
  if peek st = Star_tok then begin
    advance st;
    Sql_ast.All_columns
  end
  else begin
    let e = parse_expr st in
    if accept_kw st "AS" then Sql_ast.Proj (e, Some (parse_ident st))
    else
      match peek st with
      | Ident s when not (is_reserved s) ->
        advance st;
        Sql_ast.Proj (e, Some s)
      | _ -> Sql_ast.Proj (e, None)
  end

and parse_table_atom st =
  if peek st = Lparen then begin
    advance st;
    if not (is_kw st "SELECT") then fail_tok st "SELECT";
    let select = parse_select st in
    expect st Rparen ")";
    let _ = accept_kw st "AS" in
    Sql_ast.Derived { select; alias = parse_ident st }
  end
  else begin
    let name = parse_ident st in
    if accept_kw st "AS" then Sql_ast.Table { name; alias = Some (parse_ident st) }
    else
      match peek st with
      | Ident s when not (is_reserved s) ->
        advance st;
        Sql_ast.Table { name; alias = Some s }
      | _ -> Sql_ast.Table { name; alias = None }
  end

and parse_from st =
  let rec go left =
    match peek st with
    | Comma ->
      advance st;
      let right = parse_table_atom st in
      go (Sql_ast.Join { left; right; kind = Sql_ast.Cross; on = None })
    | Ident _ when is_kw st "JOIN" || is_kw st "INNER" ->
      let _ = accept_kw st "INNER" in
      expect_kw st "JOIN";
      let right = parse_table_atom st in
      expect_kw st "ON";
      let on = parse_expr st in
      go (Sql_ast.Join { left; right; kind = Sql_ast.Inner; on = Some on })
    | Ident _ when is_kw st "LEFT" ->
      advance st;
      expect_kw st "JOIN";
      let right = parse_table_atom st in
      expect_kw st "ON";
      let on = parse_expr st in
      go (Sql_ast.Join { left; right; kind = Sql_ast.Left; on = Some on })
    | Ident _ when is_kw st "CROSS" ->
      advance st;
      expect_kw st "JOIN";
      let right = parse_table_atom st in
      go (Sql_ast.Join { left; right; kind = Sql_ast.Cross; on = None })
    | _ -> left
  in
  go (parse_table_atom st)

and parse_select st =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let projections =
    let first = parse_projection st in
    let rec go acc =
      if peek st = Comma then begin
        advance st;
        go (parse_projection st :: acc)
      end
      else List.rev acc
    in
    go [ first ]
  in
  let from = if accept_kw st "FROM" then Some (parse_from st) else None in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let item () =
        let e = parse_expr st in
        if accept_kw st "DESC" then (e, Sql_ast.Desc)
        else begin
          let _ = accept_kw st "ASC" in
          (e, Sql_ast.Asc)
        end
      in
      let first = item () in
      let rec go acc =
        if peek st = Comma then begin
          advance st;
          go (item () :: acc)
        end
        else List.rev acc
      in
      go [ first ]
    end
    else []
  in
  let parse_count name =
    match peek st with
    | Int_lit i ->
      advance st;
      i
    | _ -> fail_tok st name
  in
  let limit = if accept_kw st "LIMIT" then Some (parse_count "limit count") else None in
  let offset = if accept_kw st "OFFSET" then Some (parse_count "offset count") else None in
  { Sql_ast.distinct; projections; from; where; group_by; having; order_by; limit; offset }

let parse_column_defs st =
  expect st Lparen "(";
  let one () =
    let name = parse_ident st in
    match peek st with
    | Ident tyname ->
      (match Value.ty_of_string tyname with
      | Some ty ->
        advance st;
        (name, ty)
      | None ->
        Errors.fail_at Errors.Parse ~offset:(peek_pos st) ~token:tyname
          "unknown column type: %s" tyname)
    | _ -> fail_tok st "column type"
  in
  let first = one () in
  let rec go acc =
    if peek st = Comma then begin
      advance st;
      go (one () :: acc)
    end
    else List.rev acc
  in
  let columns = go [ first ] in
  expect st Rparen ")";
  columns

let parse_insert st =
  expect_kw st "INSERT";
  expect_kw st "INTO";
  let table = parse_ident st in
  let columns =
    if peek st = Lparen then begin
      advance st;
      let first = parse_ident st in
      let rec go acc =
        if peek st = Comma then begin
          advance st;
          go (parse_ident st :: acc)
        end
        else List.rev acc
      in
      let cs = go [ first ] in
      expect st Rparen ")";
      Some cs
    end
    else None
  in
  expect_kw st "VALUES";
  let one_row () =
    expect st Lparen "(";
    let vs = parse_expr_list st in
    expect st Rparen ")";
    vs
  in
  let first = one_row () in
  let rec go acc =
    if peek st = Comma then begin
      advance st;
      go (one_row () :: acc)
    end
    else List.rev acc
  in
  Sql_ast.Insert { table; columns; rows = go [ first ] }

let parse_compound st =
  let first = parse_select st in
  let rec go acc =
    if accept_kw st "UNION" then begin
      let all = accept_kw st "ALL" in
      if not (is_kw st "SELECT") then fail_tok st "SELECT";
      go ((all, parse_select st) :: acc)
    end
    else List.rev acc
  in
  match go [] with
  | [] -> Sql_ast.Select first
  | rest -> Sql_ast.Compound { Sql_ast.first; rest }

let parse_stmt_inner st =
  if is_kw st "SELECT" then parse_compound st
  else if is_kw st "CREATE" then begin
    advance st;
    expect_kw st "TABLE";
    let name = parse_ident st in
    Sql_ast.Create_table { name; columns = parse_column_defs st }
  end
  else if is_kw st "DROP" then begin
    advance st;
    expect_kw st "TABLE";
    Sql_ast.Drop_table (parse_ident st)
  end
  else if is_kw st "INSERT" then parse_insert st
  else if is_kw st "DELETE" then begin
    advance st;
    expect_kw st "FROM";
    let table = parse_ident st in
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Sql_ast.Delete { table; where }
  end
  else if is_kw st "UPDATE" then begin
    advance st;
    let table = parse_ident st in
    expect_kw st "SET";
    let one () =
      let c = parse_ident st in
      expect st Eq_tok "=";
      (c, parse_expr st)
    in
    let first = one () in
    let rec go acc =
      if peek st = Comma then begin
        advance st;
        go (one () :: acc)
      end
      else List.rev acc
    in
    let assignments = go [ first ] in
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Sql_ast.Update { table; assignments; where }
  end
  else fail_tok st "statement"

let parse_stmt input =
  let st = { tokens = Sql_lexer.tokenize input } in
  let stmt = parse_stmt_inner st in
  if peek st = Semicolon then advance st;
  if peek st <> Eof then fail_tok st "end of statement";
  stmt

let parse_expr_string input =
  let st = { tokens = Sql_lexer.tokenize input } in
  let e = parse_expr st in
  if peek st <> Eof then fail_tok st "end of expression";
  e
