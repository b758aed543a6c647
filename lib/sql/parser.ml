(** Recursive-descent parser for the OpenIVM SQL fragment.

    Expression grammar (loosest to tightest):
      or_expr > and_expr > not_expr > comparison (=, <>, <, <=, >, >=,
      IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE) > additive
      (+, -, concat) > multiplicative (mul, div, mod) > unary (-) > primary.

    Besides the AST, the parser records source spans for expressions, FROM
    items, selects and statements in a side table keyed by physical node
    identity ([==]). The AST itself stays position-free on purpose: the
    compiler compares subtrees structurally (GROUP BY matching, CSE), which
    embedded positions would silently break. The side table works because
    every AST node is allocated exactly once during the parse; the only
    exceptions are constant constructors ([Star], [Begin_txn], ...), which
    share identity — their lookups return the first recorded occurrence. *)

exception Error of string * int

(** Source spans recorded during a parse, keyed by physical identity. *)
type spans = {
  expr_spans : (Ast.expr * Diagnostic.span) list;
  from_spans : (Ast.from_clause * Diagnostic.span) list;
  select_spans : (Ast.select * Diagnostic.span) list;
  stmt_spans : (Ast.stmt * Diagnostic.span) list;
}

let no_spans =
  { expr_spans = []; from_spans = []; select_spans = []; stmt_spans = [] }

(* Entries are prepended innermost-first and looked up front-to-back, so a
   node recorded by several productions resolves to its widest span. *)
let assq_phys key table =
  List.find_map (fun (k, sp) -> if k == key then Some sp else None) table

let expr_span spans e = assq_phys e spans.expr_spans
let from_span spans f = assq_phys f spans.from_spans
let select_span spans s = assq_phys s spans.select_spans
let statement_span spans s = assq_phys s spans.stmt_spans

type state = {
  toks : Lexer.positioned array;
  mutable cursor : int;
  mutable s_exprs : (Ast.expr * Diagnostic.span) list;
  mutable s_froms : (Ast.from_clause * Diagnostic.span) list;
  mutable s_selects : (Ast.select * Diagnostic.span) list;
  mutable s_stmts : (Ast.stmt * Diagnostic.span) list;
}

let of_string src =
  let toks = Array.of_list (Lexer.tokenize src) in
  { toks; cursor = 0; s_exprs = []; s_froms = []; s_selects = []; s_stmts = [] }

let snapshot_spans st =
  { expr_spans = st.s_exprs; from_spans = st.s_froms;
    select_spans = st.s_selects; stmt_spans = st.s_stmts }

let peek st = st.toks.(st.cursor).tok
let peek2 st =
  if st.cursor + 1 < Array.length st.toks then st.toks.(st.cursor + 1).tok
  else Token.Eof
let pos st = st.toks.(st.cursor).pos
let advance st = st.cursor <- st.cursor + 1

(** End of the last consumed token. *)
let last_stop st = if st.cursor = 0 then 0 else st.toks.(st.cursor - 1).Lexer.stop

let span_from st start =
  Diagnostic.span ~start_pos:start ~stop_pos:(max start (last_stop st))

let record_expr st start e =
  st.s_exprs <- (e, span_from st start) :: st.s_exprs;
  e

let record_from st start f =
  st.s_froms <- (f, span_from st start) :: st.s_froms;
  f

let record_select st start s =
  st.s_selects <- (s, span_from st start) :: st.s_selects;
  s

let record_stmt st start s =
  st.s_stmts <- (s, span_from st start) :: st.s_stmts;
  s

let fail st msg = raise (Error (msg, pos st))

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek st)))

let accept st tok =
  if peek st = tok then begin advance st; true end else false

let accept_kw st kw = accept st (Token.Keyword kw)
let expect_kw st kw = expect st (Token.Keyword kw)
let at_kw st kw = peek st = Token.Keyword kw

(* Identifiers: unquoted identifiers are already lower-cased by the lexer;
   non-reserved keywords (type names etc.) are also accepted where an
   identifier is expected, since SQL keyword reservation is notoriously
   loose. *)
let ident st =
  match peek st with
  | Token.Ident s -> advance st; s
  | Token.Quoted_ident s -> advance st; s
  | Token.Keyword
      (("key" | "index" | "values" | "set" | "first" | "last" | "replace"
       | "conflict" | "date" | "begin" | "end" | "left" | "right") as s) ->
    advance st; s
  | t -> fail st (Printf.sprintf "expected identifier, found %s" (Token.to_string t))

let type_name st =
  match peek st with
  | Token.Keyword ("integer" | "int" | "bigint") -> advance st; Ast.T_int
  | Token.Keyword ("float" | "double" | "real") -> advance st; Ast.T_float
  | Token.Keyword ("varchar" | "text") ->
    advance st;
    (* VARCHAR(30): length is parsed and ignored, types are unbounded. *)
    if accept st Token.Lparen then begin
      (match peek st with Token.Int_lit _ -> advance st | _ -> fail st "expected length");
      expect st Token.Rparen
    end;
    Ast.T_text
  | Token.Keyword ("boolean" | "bool") -> advance st; Ast.T_bool
  | Token.Keyword "date" -> advance st; Ast.T_date
  | t -> fail st (Printf.sprintf "expected type name, found %s" (Token.to_string t))

(* --- expressions --- *)

let rec expr st =
  let start = pos st in
  record_expr st start (or_expr st)

and or_expr st =
  let lhs = and_expr st in
  if accept_kw st "or" then Ast.Binary (Ast.Or, lhs, or_expr st) else lhs

and and_expr st =
  let lhs = not_expr st in
  if accept_kw st "and" then Ast.Binary (Ast.And, lhs, and_expr st) else lhs

and not_expr st =
  if accept_kw st "not" then Ast.Unary (Ast.Not, not_expr st)
  else comparison st

and comparison st =
  let lhs = additive st in
  match peek st with
  | Token.Eq -> advance st; Ast.Binary (Ast.Eq, lhs, additive st)
  | Token.Neq -> advance st; Ast.Binary (Ast.Neq, lhs, additive st)
  | Token.Lt -> advance st; Ast.Binary (Ast.Lt, lhs, additive st)
  | Token.Le -> advance st; Ast.Binary (Ast.Le, lhs, additive st)
  | Token.Gt -> advance st; Ast.Binary (Ast.Gt, lhs, additive st)
  | Token.Ge -> advance st; Ast.Binary (Ast.Ge, lhs, additive st)
  | Token.Keyword "is" ->
    advance st;
    let negated = accept_kw st "not" in
    expect_kw st "null";
    Ast.Is_null (lhs, negated)
  | Token.Keyword "in" -> advance st; in_suffix st lhs false
  | Token.Keyword "between" -> advance st; between_suffix st lhs false
  | Token.Keyword "like" -> advance st; Ast.Like (lhs, additive st, false)
  | Token.Keyword "not" ->
    advance st;
    if accept_kw st "in" then in_suffix st lhs true
    else if accept_kw st "between" then between_suffix st lhs true
    else if accept_kw st "like" then Ast.Like (lhs, additive st, true)
    else fail st "expected IN, BETWEEN or LIKE after NOT"
  | _ -> lhs

and in_suffix st lhs negated =
  expect st Token.Lparen;
  match peek st with
  | Token.Keyword ("select" | "with") ->
    let q = select_stmt st in
    expect st Token.Rparen;
    Ast.In_select (lhs, q, negated)
  | _ ->
    let items = expr_list st in
    expect st Token.Rparen;
    Ast.In_list (lhs, items, negated)

and between_suffix st lhs negated =
  let lo = additive st in
  expect_kw st "and";
  let hi = additive st in
  Ast.Between (lhs, lo, hi, negated)

and additive st =
  let rec go lhs =
    match peek st with
    | Token.Plus -> advance st; go (Ast.Binary (Ast.Add, lhs, multiplicative st))
    | Token.Minus -> advance st; go (Ast.Binary (Ast.Sub, lhs, multiplicative st))
    | Token.Concat_op ->
      advance st; go (Ast.Binary (Ast.Concat, lhs, multiplicative st))
    | _ -> lhs
  in
  go (multiplicative st)

and multiplicative st =
  let rec go lhs =
    match peek st with
    | Token.Star -> advance st; go (Ast.Binary (Ast.Mul, lhs, unary st))
    | Token.Slash -> advance st; go (Ast.Binary (Ast.Div, lhs, unary st))
    | Token.Percent -> advance st; go (Ast.Binary (Ast.Mod, lhs, unary st))
    | _ -> lhs
  in
  go (unary st)

and unary st =
  if accept st Token.Minus then Ast.Unary (Ast.Neg, unary st)
  else if accept st Token.Plus then unary st
  else primary st

and primary st =
  let start = pos st in
  record_expr st start (primary_inner st)

and primary_inner st =
  match peek st with
  | Token.Int_lit i -> advance st; Ast.Lit (Ast.L_int i)
  | Token.Float_lit f -> advance st; Ast.Lit (Ast.L_float f)
  | Token.String_lit s -> advance st; Ast.Lit (Ast.L_string s)
  | Token.Keyword "null" -> advance st; Ast.Lit Ast.L_null
  | Token.Keyword "true" -> advance st; Ast.Lit (Ast.L_bool true)
  | Token.Keyword "false" -> advance st; Ast.Lit (Ast.L_bool false)
  | Token.Keyword "date" when peek2 st <> Token.Lparen ->
    (* DATE 'YYYY-MM-DD' literal *)
    advance st;
    (match peek st with
     | Token.String_lit s ->
       advance st;
       Ast.Cast (Ast.Lit (Ast.L_string s), Ast.T_date)
     | _ -> fail st "expected date string after DATE")
  | Token.Keyword "case" -> advance st; case_expr st
  | Token.Keyword "cast" ->
    advance st;
    expect st Token.Lparen;
    let e = expr st in
    expect_kw st "as";
    let t = type_name st in
    expect st Token.Rparen;
    Ast.Cast (e, t)
  | Token.Star -> advance st; Ast.Star
  | Token.Lparen ->
    advance st;
    let e = expr st in
    expect st Token.Rparen;
    e
  | Token.Ident _ | Token.Quoted_ident _ | Token.Keyword _ ->
    identifier_expr st
  | t -> fail st (Printf.sprintf "unexpected %s in expression" (Token.to_string t))

and case_expr st =
  let rec branches acc =
    if accept_kw st "when" then begin
      let cond = expr st in
      expect_kw st "then";
      let value = expr st in
      branches ((cond, value) :: acc)
    end else List.rev acc
  in
  let bs = branches [] in
  if bs = [] then fail st "CASE requires at least one WHEN branch";
  let default = if accept_kw st "else" then Some (expr st) else None in
  expect_kw st "end";
  Ast.Case (bs, default)

and identifier_expr st =
  let name = ident st in
  match peek st with
  | Token.Lparen -> function_call st name
  | Token.Dot ->
    advance st;
    if accept st Token.Star then Ast.Column (Some name, "*")
    else Ast.Column (Some name, ident st)
  | _ -> Ast.Column (None, name)

and function_call st name =
  expect st Token.Lparen;
  let aggregate_of_name = function
    | "sum" -> Some Ast.Sum
    | "count" -> Some Ast.Count
    | "min" -> Some Ast.Min
    | "max" -> Some Ast.Max
    | "avg" -> Some Ast.Avg
    | _ -> None
  in
  match aggregate_of_name name with
  | Some agg ->
    if accept st Token.Star then begin
      expect st Token.Rparen;
      if agg <> Ast.Count then fail st "only COUNT accepts *";
      Ast.Aggregate (Ast.Count, false, None)
    end
    else begin
      let distinct = accept_kw st "distinct" in
      let arg = expr st in
      expect st Token.Rparen;
      Ast.Aggregate (agg, distinct, Some arg)
    end
  | None ->
    let args =
      if peek st = Token.Rparen then []
      else expr_list st
    in
    expect st Token.Rparen;
    Ast.Func (name, args)

and expr_list st =
  let rec go acc =
    let e = expr st in
    if accept st Token.Comma then go (e :: acc) else List.rev (e :: acc)
  in
  go []

(* --- SELECT --- *)

and select_stmt st : Ast.select =
  let start = pos st in
  record_select st start (select_stmt_inner st)

and select_stmt_inner st : Ast.select =
  let ctes =
    if accept_kw st "with" then begin
      let rec go acc =
        let name = ident st in
        expect_kw st "as";
        expect st Token.Lparen;
        let q = select_stmt st in
        expect st Token.Rparen;
        let acc = (name, q) :: acc in
        if accept st Token.Comma then go acc else List.rev acc
      in
      go []
    end else []
  in
  let body = select_core st in
  let body = { body with Ast.ctes } in
  (* set operations bind the cores; ORDER BY / LIMIT after a set operation
     apply to the whole expression and are kept on the left select. *)
  let body = set_op_suffix st body in
  let order_by = order_by_clause st in
  let limit, offset = limit_clause st in
  { body with Ast.order_by =
      (if order_by = [] then body.Ast.order_by else order_by);
    limit = (match limit with None -> body.Ast.limit | some -> some);
    offset = (match offset with None -> body.Ast.offset | some -> some) }

and set_op_suffix st lhs =
  let kind =
    if at_kw st "union" then begin
      advance st;
      if accept_kw st "all" then Some Ast.Union_all else Some Ast.Union
    end
    else if at_kw st "except" then begin advance st; Some Ast.Except end
    else if at_kw st "intersect" then begin advance st; Some Ast.Intersect end
    else None
  in
  match kind with
  | None -> lhs
  | Some op ->
    (* chains are encoded right-nested on the rhs and re-associated to the
       left by the consumer (set operations are left-associative) *)
    let start = pos st in
    let rhs = select_core st in
    let rhs = set_op_suffix st rhs in
    let rhs = record_select st start rhs in
    { lhs with Ast.set_operation = Some (op, rhs) }

and select_core st : Ast.select =
  expect_kw st "select";
  let distinct = accept_kw st "distinct" in
  ignore (accept_kw st "all");
  let projections = projection_list st in
  let from =
    if accept_kw st "from" then Some (from_clause st) else None
  in
  let where = if accept_kw st "where" then Some (expr st) else None in
  let group_by =
    if at_kw st "group" then begin
      advance st;
      expect_kw st "by";
      expr_list st
    end else []
  in
  let having = if accept_kw st "having" then Some (expr st) else None in
  { Ast.empty_select with distinct; projections; from; where; group_by; having }

and projection_list st =
  let one () =
    let e = expr st in
    let alias =
      if accept_kw st "as" then Some (ident st)
      else
        match peek st with
        | Token.Ident _ | Token.Quoted_ident _ -> Some (ident st)
        | _ -> None
    in
    (e, alias)
  in
  let rec go acc =
    let p = one () in
    if accept st Token.Comma then go (p :: acc) else List.rev (p :: acc)
  in
  go []

and from_clause st =
  let rec joins lhs =
    match peek st with
    | Token.Comma ->
      advance st;
      joins (Ast.Join (lhs, Ast.Cross, from_item st, None))
    | Token.Keyword "cross" ->
      advance st;
      expect_kw st "join";
      joins (Ast.Join (lhs, Ast.Cross, from_item st, None))
    | Token.Keyword ("join" | "inner" | "left" | "right" | "full") ->
      let kind =
        if accept_kw st "inner" then Ast.Inner
        else if accept_kw st "left" then begin
          ignore (accept_kw st "outer"); Ast.Left_outer
        end
        else if accept_kw st "right" then begin
          ignore (accept_kw st "outer"); Ast.Right_outer
        end
        else if accept_kw st "full" then begin
          ignore (accept_kw st "outer"); Ast.Full_outer
        end
        else Ast.Inner
      in
      expect_kw st "join";
      let rhs = from_item st in
      let cond =
        if accept_kw st "on" then Some (expr st)
        else if kind = Ast.Cross then None
        else fail st "expected ON after JOIN (USING is not supported)"
      in
      joins (Ast.Join (lhs, kind, rhs, cond))
    | _ -> lhs
  in
  joins (from_item st)

and from_item st =
  let start = pos st in
  let item =
    if accept st Token.Lparen then begin
      let q = select_stmt st in
      expect st Token.Rparen;
      ignore (accept_kw st "as");
      let alias = ident st in
      Ast.Subquery (q, alias)
    end
    else begin
      let name = ident st in
      let alias =
        if accept_kw st "as" then Some (ident st)
        else
          match peek st with
          | Token.Ident _ | Token.Quoted_ident _ -> Some (ident st)
          | _ -> None
      in
      Ast.Table_ref (name, alias)
    end
  in
  record_from st start item

and order_by_clause st =
  if at_kw st "order" then begin
    advance st;
    expect_kw st "by";
    let one () =
      let e = expr st in
      let descending =
        if accept_kw st "desc" then true
        else begin ignore (accept_kw st "asc"); false end
      in
      (* NULLS FIRST/LAST parsed and ignored: engine sorts NULL first. *)
      if accept_kw st "nulls" then
        ignore (accept_kw st "first" || accept_kw st "last");
      { Ast.order_expr = e; descending }
    in
    let rec go acc =
      let item = one () in
      if accept st Token.Comma then go (item :: acc) else List.rev (item :: acc)
    in
    go []
  end else []

and limit_clause st =
  let limit =
    if accept_kw st "limit" then
      match peek st with
      | Token.Int_lit i -> advance st; Some i
      | _ -> fail st "expected integer after LIMIT"
    else None
  in
  let offset =
    if accept_kw st "offset" then
      match peek st with
      | Token.Int_lit i -> advance st; Some i
      | _ -> fail st "expected integer after OFFSET"
    else None
  in
  (limit, offset)

(* --- statements --- *)

let column_def st : Ast.column_def =
  let col_name = ident st in
  let col_type = type_name st in
  let not_null = ref false in
  let primary = ref false in
  let rec constraints () =
    if accept_kw st "not" then begin
      expect_kw st "null"; not_null := true; constraints ()
    end
    else if accept_kw st "primary" then begin
      expect_kw st "key"; primary := true; constraints ()
    end
    else if accept_kw st "unique" then constraints ()
    else ()
  in
  constraints ();
  { Ast.col_name; col_type; col_not_null = !not_null; col_primary_key = !primary }

let create_table st ~if_not_exists : Ast.stmt =
  let table = ident st in
  expect st Token.Lparen;
  let columns = ref [] in
  let table_pk = ref [] in
  let rec items () =
    if at_kw st "primary" then begin
      advance st;
      expect_kw st "key";
      expect st Token.Lparen;
      let rec cols acc =
        let c = ident st in
        if accept st Token.Comma then cols (c :: acc) else List.rev (c :: acc)
      in
      table_pk := cols [];
      expect st Token.Rparen
    end
    else columns := column_def st :: !columns;
    if accept st Token.Comma then items ()
  in
  items ();
  expect st Token.Rparen;
  let columns = List.rev !columns in
  let inline_pk =
    List.filter_map
      (fun c -> if c.Ast.col_primary_key then Some c.Ast.col_name else None)
      columns
  in
  let primary_key = if !table_pk <> [] then !table_pk else inline_pk in
  Ast.Create_table { table; columns; primary_key; if_not_exists }

let rec statement st : Ast.stmt =
  let start = pos st in
  record_stmt st start (statement_inner st)

and statement_inner st : Ast.stmt =
  match peek st with
  | Token.Keyword "explain" -> advance st; Ast.Explain (statement st)
  | Token.Keyword ("select" | "with") -> Ast.Select_stmt (select_stmt st)
  | Token.Keyword "create" -> advance st; create_stmt st
  | Token.Keyword "insert" -> advance st; insert_stmt st
  | Token.Keyword "update" -> advance st; update_stmt st
  | Token.Keyword "delete" -> advance st; delete_stmt st
  | Token.Keyword "drop" -> advance st; drop_stmt st
  | Token.Keyword "truncate" ->
    advance st;
    ignore (accept_kw st "table");
    Ast.Truncate (ident st)
  | Token.Keyword "begin" -> advance st; Ast.Begin_txn
  | Token.Keyword "commit" -> advance st; Ast.Commit_txn
  | Token.Keyword "rollback" -> advance st; Ast.Rollback_txn
  | t -> fail st (Printf.sprintf "unexpected %s at start of statement" (Token.to_string t))

and create_stmt st =
  let unique = accept_kw st "unique" in
  if accept_kw st "table" then begin
    if unique then fail st "UNIQUE only applies to CREATE INDEX";
    let if_not_exists =
      if accept_kw st "if" then begin
        expect_kw st "not"; expect_kw st "exists"; true
      end else false
    in
    create_table st ~if_not_exists
  end
  else if accept_kw st "index" then begin
    let index = ident st in
    expect_kw st "on";
    let table = ident st in
    expect st Token.Lparen;
    let rec cols acc =
      let c = ident st in
      if accept st Token.Comma then cols (c :: acc) else List.rev (c :: acc)
    in
    let columns = cols [] in
    expect st Token.Rparen;
    Ast.Create_index { index; table; columns; unique }
  end
  else begin
    let materialized = accept_kw st "materialized" in
    expect_kw st "view";
    let view = ident st in
    expect_kw st "as";
    let query = select_stmt st in
    Ast.Create_view { view; materialized; query }
  end

and insert_stmt st =
  let on_conflict =
    if accept_kw st "or" then begin
      expect_kw st "replace";
      Ast.Or_replace
    end else Ast.No_conflict_clause
  in
  expect_kw st "into";
  let table = ident st in
  let columns =
    if peek st = Token.Lparen then begin
      advance st;
      let rec cols acc =
        let c = ident st in
        if accept st Token.Comma then cols (c :: acc) else List.rev (c :: acc)
      in
      let cs = cols [] in
      expect st Token.Rparen;
      cs
    end else []
  in
  let source =
    if accept_kw st "values" then begin
      let row () =
        expect st Token.Lparen;
        let es = expr_list st in
        expect st Token.Rparen;
        es
      in
      let rec rows acc =
        let r = row () in
        if accept st Token.Comma then rows (r :: acc) else List.rev (r :: acc)
      in
      Ast.Values (rows [])
    end
    else Ast.Query (select_stmt st)
  in
  let on_conflict =
    if accept_kw st "on" then begin
      expect_kw st "conflict";
      (* optional conflict target: ON CONFLICT (cols) *)
      if peek st = Token.Lparen then begin
        advance st;
        let rec skip_cols () =
          ignore (ident st);
          if accept st Token.Comma then skip_cols ()
        in
        skip_cols ();
        expect st Token.Rparen
      end;
      expect_kw st "do";
      if accept_kw st "nothing" then Ast.Do_nothing
      else if accept_kw st "update" then begin
        (* ON CONFLICT (keys) DO UPDATE SET c = EXCLUDED.c, ... — the
           PostgreSQL upsert our emitter produces; semantically this is a
           whole-row replace, so it maps back to Or_replace (the SET list
           is re-derivable from the insert columns) *)
        expect_kw st "set";
        let rec assignments () =
          ignore (ident st);
          expect st Token.Eq;
          ignore (expr st);
          if accept st Token.Comma then assignments ()
        in
        assignments ();
        Ast.Or_replace
      end
      else fail st "expected NOTHING or UPDATE after ON CONFLICT DO"
    end else on_conflict
  in
  Ast.Insert { table; columns; source; on_conflict }

and update_stmt st =
  let table = ident st in
  expect_kw st "set";
  let one () =
    let col = ident st in
    expect st Token.Eq;
    (col, expr st)
  in
  let rec go acc =
    let a = one () in
    if accept st Token.Comma then go (a :: acc) else List.rev (a :: acc)
  in
  let assignments = go [] in
  let where = if accept_kw st "where" then Some (expr st) else None in
  Ast.Update { table; assignments; where }

and delete_stmt st =
  expect_kw st "from";
  let table = ident st in
  let using = if accept_kw st "using" then Some (from_item st) else None in
  let where = if accept_kw st "where" then Some (expr st) else None in
  Ast.Delete { table; using; where }

and drop_stmt st =
  let kind =
    if accept_kw st "table" then `Table
    else if accept_kw st "view" then `View
    else if accept_kw st "index" then `Index
    else fail st "expected TABLE, VIEW or INDEX after DROP"
  in
  let if_exists =
    if accept_kw st "if" then begin expect_kw st "exists"; true end
    else false
  in
  Ast.Drop { kind; name = ident st; if_exists }

(* --- entry points --- *)

let parse_statement_positioned (src : string) : Ast.stmt * spans =
  let st = of_string src in
  let s = statement st in
  ignore (accept st Token.Semicolon);
  if peek st <> Token.Eof then fail st "trailing input after statement";
  (s, snapshot_spans st)

let parse_statement (src : string) : Ast.stmt =
  fst (parse_statement_positioned src)

(* Hand each statement of a script to [f] as soon as it is parsed. *)
let each_statement st (f : Ast.stmt -> unit) : unit =
  let rec go () =
    if peek st = Token.Eof then ()
    else if accept st Token.Semicolon then go ()
    else begin
      let s = statement st in
      if not (accept st Token.Semicolon) && peek st <> Token.Eof then
        fail st "expected ; between statements";
      f s;
      go ()
    end
  in
  go ()

let parse_script_positioned (src : string) : Ast.stmt list * spans =
  let st = of_string src in
  let acc = ref [] in
  each_statement st (fun s -> acc := s :: !acc);
  (List.rev !acc, snapshot_spans st)

let parse_script (src : string) : Ast.stmt list =
  fst (parse_script_positioned src)

let iter_script (f : Ast.stmt -> unit) (src : string) : unit =
  let st = of_string src in
  each_statement st (fun s ->
      (* nobody reads these spans: drop them with the statement *)
      st.s_exprs <- [];
      st.s_froms <- [];
      st.s_selects <- [];
      st.s_stmts <- [];
      f s)

let parse_expression_positioned (src : string) : Ast.expr * spans =
  let st = of_string src in
  let e = expr st in
  if peek st <> Token.Eof then fail st "trailing input after expression";
  (e, snapshot_spans st)

let parse_expression (src : string) : Ast.expr =
  fst (parse_expression_positioned src)

let parse_select_positioned (src : string) : Ast.select * spans =
  match parse_statement_positioned src with
  | Ast.Select_stmt s, spans -> (s, spans)
  | _ -> raise (Error ("expected a SELECT statement", 0))

let parse_select (src : string) : Ast.select =
  fst (parse_select_positioned src)
