open Openivm_sql

let parse = Parser.parse_statement
let parse_expr = Parser.parse_expression

let check_roundtrip sql () =
  (* parse -> print -> parse must be a fixpoint of printing *)
  let s1 = parse sql in
  let printed1 = Pretty.stmt_to_sql Dialect.duckdb s1 in
  let s2 = parse printed1 in
  let printed2 = Pretty.stmt_to_sql Dialect.duckdb s2 in
  Alcotest.(check string) sql printed1 printed2

let check_expr sql expected () =
  Alcotest.(check bool)
    (Printf.sprintf "parse %S" sql)
    true
    (parse_expr sql = expected)

let check_rejects sql () =
  match parse sql with
  | exception Parser.Error _ -> ()
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.failf "expected parse error for %S" sql

let select_of sql =
  match parse sql with
  | Ast.Select_stmt s -> s
  | _ -> Alcotest.fail "expected SELECT"

let suite =
  [ Util.tc "precedence: OR binds loosest"
      (check_expr "a = 1 AND b = 2 OR c = 3"
         Ast.(Binary (Or,
                      Binary (And,
                              Binary (Eq, Column (None, "a"), Lit (L_int 1)),
                              Binary (Eq, Column (None, "b"), Lit (L_int 2))),
                      Binary (Eq, Column (None, "c"), Lit (L_int 3)))));
    Util.tc "precedence: mul over add"
      (check_expr "1 + 2 * 3"
         Ast.(Binary (Add, Lit (L_int 1),
                      Binary (Mul, Lit (L_int 2), Lit (L_int 3)))));
    Util.tc "unary minus"
      (check_expr "-x + 1"
         Ast.(Binary (Add, Unary (Neg, Column (None, "x")), Lit (L_int 1))));
    Util.tc "NOT applies to comparison"
      (check_expr "NOT a = 1"
         Ast.(Unary (Not, Binary (Eq, Column (None, "a"), Lit (L_int 1)))));
    Util.tc "BETWEEN"
      (check_expr "x BETWEEN 1 AND 3"
         Ast.(Between (Column (None, "x"), Lit (L_int 1), Lit (L_int 3), false)));
    Util.tc "NOT IN list"
      (check_expr "x NOT IN (1, 2)"
         Ast.(In_list (Column (None, "x"), [ Lit (L_int 1); Lit (L_int 2) ], true)));
    Util.tc "IS NOT NULL"
      (check_expr "x IS NOT NULL" Ast.(Is_null (Column (None, "x"), true)));
    Util.tc "CASE with ELSE"
      (check_expr "CASE WHEN a THEN 1 ELSE 2 END"
         Ast.(Case ([ (Column (None, "a"), Lit (L_int 1)) ], Some (Lit (L_int 2)))));
    Util.tc "COUNT star"
      (check_expr "COUNT(*)" Ast.(Aggregate (Count, false, None)));
    Util.tc "SUM DISTINCT"
      (check_expr "SUM(DISTINCT x)"
         Ast.(Aggregate (Sum, true, Some (Column (None, "x")))));
    Util.tc "CAST"
      (check_expr "CAST(x AS VARCHAR)"
         Ast.(Cast (Column (None, "x"), T_text)));
    Util.tc "qualified star parses" (fun () ->
        let s = select_of "SELECT t.* FROM t" in
        Alcotest.(check int) "one projection" 1 (List.length s.Ast.projections));
    Util.tc "IN subquery" (fun () ->
        match parse_expr "x IN (SELECT y FROM t)" with
        | Ast.In_select (_, _, false) -> ()
        | _ -> Alcotest.fail "expected In_select");
    Util.tc "group by and having" (fun () ->
        let s =
          select_of
            "SELECT k, SUM(v) FROM t GROUP BY k HAVING SUM(v) > 10"
        in
        Alcotest.(check int) "groups" 1 (List.length s.Ast.group_by);
        Alcotest.(check bool) "has having" true (s.Ast.having <> None));
    Util.tc "order by desc limit offset" (fun () ->
        let s = select_of "SELECT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2" in
        (match s.Ast.order_by with
         | [ { Ast.descending = true; _ } ] -> ()
         | _ -> Alcotest.fail "order");
        Alcotest.(check (option int)) "limit" (Some 5) s.Ast.limit;
        Alcotest.(check (option int)) "offset" (Some 2) s.Ast.offset);
    Util.tc "chained set ops are right-nested" (fun () ->
        let s = select_of "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM w" in
        match s.Ast.set_operation with
        | Some (Ast.Union, rhs) ->
          (match rhs.Ast.set_operation with
           | Some (Ast.Except, _) -> ()
           | _ -> Alcotest.fail "inner op")
        | _ -> Alcotest.fail "outer op");
    Util.tc "join kinds" (fun () ->
        let s =
          select_of
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x FULL JOIN c ON \
             b.y = c.y"
        in
        match s.Ast.from with
        | Some (Ast.Join (Ast.Join (_, Ast.Left_outer, _, _), Ast.Full_outer, _, _)) -> ()
        | _ -> Alcotest.fail "join tree");
    Util.tc "cross join via comma" (fun () ->
        let s = select_of "SELECT * FROM a, b" in
        match s.Ast.from with
        | Some (Ast.Join (_, Ast.Cross, _, None)) -> ()
        | _ -> Alcotest.fail "comma join");
    Util.tc "WITH cte" (fun () ->
        let s = select_of "WITH c AS (SELECT 1 AS one) SELECT one FROM c" in
        Alcotest.(check int) "ctes" 1 (List.length s.Ast.ctes));
    Util.tc "create table with pk" (fun () ->
        match parse "CREATE TABLE t(a INTEGER PRIMARY KEY, b VARCHAR NOT NULL)" with
        | Ast.Create_table { primary_key = [ "a" ]; columns; _ } ->
          Alcotest.(check int) "cols" 2 (List.length columns)
        | _ -> Alcotest.fail "create table");
    Util.tc "create table with table-level pk" (fun () ->
        match parse "CREATE TABLE t(a INTEGER, b INTEGER, PRIMARY KEY (a, b))" with
        | Ast.Create_table { primary_key = [ "a"; "b" ]; _ } -> ()
        | _ -> Alcotest.fail "table-level pk");
    Util.tc "create materialized view" (fun () ->
        match parse "CREATE MATERIALIZED VIEW v AS SELECT 1 AS x" with
        | Ast.Create_view { materialized = true; view = "v"; _ } -> ()
        | _ -> Alcotest.fail "materialized view");
    Util.tc "insert or replace" (fun () ->
        match parse "INSERT OR REPLACE INTO t VALUES (1, 2)" with
        | Ast.Insert { on_conflict = Ast.Or_replace; _ } -> ()
        | _ -> Alcotest.fail "insert or replace");
    Util.tc "insert from select with columns" (fun () ->
        match parse "INSERT INTO t (a, b) SELECT a, b FROM u" with
        | Ast.Insert { columns = [ "a"; "b" ]; source = Ast.Query _; _ } -> ()
        | _ -> Alcotest.fail "insert select");
    Util.tc "on conflict do nothing" (fun () ->
        match parse "INSERT INTO t VALUES (1) ON CONFLICT DO NOTHING" with
        | Ast.Insert { on_conflict = Ast.Do_nothing; _ } -> ()
        | _ -> Alcotest.fail "do nothing");
    Util.tc "update with where" (fun () ->
        match parse "UPDATE t SET a = a + 1, b = 0 WHERE c > 2" with
        | Ast.Update { assignments; where = Some _; _ } ->
          Alcotest.(check int) "assignments" 2 (List.length assignments)
        | _ -> Alcotest.fail "update");
    Util.tc "delete without where" (fun () ->
        match parse "DELETE FROM t" with
        | Ast.Delete { where = None; _ } -> ()
        | _ -> Alcotest.fail "delete");
    Util.tc "drop if exists" (fun () ->
        match parse "DROP TABLE IF EXISTS t" with
        | Ast.Drop { if_exists = true; kind = `Table; _ } -> ()
        | _ -> Alcotest.fail "drop");
    Util.tc "explain" (fun () ->
        match parse "EXPLAIN SELECT 1" with
        | Ast.Explain (Ast.Select_stmt _) -> ()
        | _ -> Alcotest.fail "explain");
    Util.tc "script parsing" (fun () ->
        let stmts = Parser.parse_script "SELECT 1; SELECT 2;; SELECT 3" in
        Alcotest.(check int) "three statements" 3 (List.length stmts);
        let seen = ref [] in
        Parser.iter_script
          (fun s -> seen := s :: !seen)
          "SELECT 1; SELECT 2;; SELECT 3";
        Alcotest.(check bool) "iter_script hands over the same statements"
          true (List.rev !seen = stmts);
        (* statements before a parse error have already been handed over *)
        seen := [];
        (match
           Parser.iter_script (fun s -> seen := s :: !seen) "SELECT 1; SELEC 2"
         with
         | exception Parser.Error _ -> ()
         | () -> Alcotest.fail "expected a parse error");
        Alcotest.(check int) "one statement ran first" 1 (List.length !seen));
    Util.tc "date literal" (fun () ->
        match parse_expr "DATE '2024-06-09'" with
        | Ast.Cast (Ast.Lit (Ast.L_string "2024-06-09"), Ast.T_date) -> ()
        | _ -> Alcotest.fail "date literal");
    Util.tc "rejects trailing garbage" (check_rejects "SELECT 1 FROM t xyz 12");
    Util.tc "rejects missing FROM table" (check_rejects "SELECT * FROM WHERE");
    Util.tc "rejects bad insert" (check_rejects "INSERT t VALUES (1)");
    Util.tc "rejects star in sum" (check_rejects "SELECT SUM(*) FROM t");
    (* printer round trips *)
    Util.tc "roundtrip: listing-2 combine"
      (check_roundtrip
         "INSERT OR REPLACE INTO query_groups WITH ivm_cte AS (SELECT \
          group_index, SUM(CASE WHEN m = FALSE THEN -total_value ELSE \
          total_value END) AS total_value FROM delta_query_groups GROUP BY \
          group_index) SELECT d.group_index, SUM(COALESCE(q.total_value, 0) \
          + d.total_value) FROM ivm_cte AS d LEFT JOIN query_groups ON \
          q.group_index = d.group_index GROUP BY q.group_index");
    Util.tc "roundtrip: quantified select"
      (check_roundtrip
         "SELECT a.x AS x, COUNT(*) AS n FROM t AS a JOIN u AS b ON a.k = \
          b.k WHERE a.v BETWEEN 1 AND 10 OR b.w IS NULL GROUP BY a.x \
          ORDER BY a.x DESC LIMIT 3");
    Util.tc "roundtrip: set operations"
      (check_roundtrip "SELECT a FROM t UNION ALL SELECT b FROM u EXCEPT SELECT c FROM w");
    Util.tc "roundtrip: in-subquery"
      (check_roundtrip "DELETE FROM v WHERE k IN (SELECT k FROM d WHERE m = FALSE)");
    Util.tc "roundtrip: create table"
      (check_roundtrip "CREATE TABLE t (a INTEGER NOT NULL, b DOUBLE, c VARCHAR, PRIMARY KEY (a))");
    Util.tc "roundtrip: update"
      (check_roundtrip "UPDATE t SET a = a % 3 WHERE NOT b OR c LIKE 'x%'");
    (* --- position threading --- *)
    Util.tc "positions: where clause expression" (fun () ->
        let sql = "SELECT k FROM t WHERE amount > 100" in
        let s, spans = Parser.parse_select_positioned sql in
        match s.Ast.where with
        | Some w ->
          (match Parser.expr_span spans w with
           | Some sp ->
             Alcotest.(check string) "span text" "amount > 100"
               (String.sub sql sp.Diagnostic.start_pos
                  (sp.Diagnostic.stop_pos - sp.Diagnostic.start_pos))
           | None -> Alcotest.fail "WHERE expression has no span")
        | None -> Alcotest.fail "expected WHERE");
    Util.tc "positions: each projection has its own span" (fun () ->
        let sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k" in
        let s, spans = Parser.parse_select_positioned sql in
        let texts =
          List.map
            (fun (e, _) ->
               match Parser.expr_span spans e with
               | Some sp ->
                 String.sub sql sp.Diagnostic.start_pos
                   (sp.Diagnostic.stop_pos - sp.Diagnostic.start_pos)
               | None -> "<none>")
            s.Ast.projections
        in
        Alcotest.(check (list string)) "texts" [ "k"; "SUM(v)" ] texts);
    Util.tc "positions: from items" (fun () ->
        let sql = "SELECT t.k FROM t JOIN u ON t.k = u.k" in
        let s, spans = Parser.parse_select_positioned sql in
        match s.Ast.from with
        | Some (Ast.Join (l, _, r, _)) ->
          let text f =
            match Parser.from_span spans f with
            | Some sp ->
              String.sub sql sp.Diagnostic.start_pos
                (sp.Diagnostic.stop_pos - sp.Diagnostic.start_pos)
            | None -> "<none>"
          in
          Alcotest.(check string) "left" "t" (text l);
          Alcotest.(check string) "right" "u" (text r)
        | _ -> Alcotest.fail "expected a join");
    Util.tc "positions: script offsets are global" (fun () ->
        let sql = "SELECT 1 AS a;\nSELECT nope FROM t;" in
        let stmts, spans = Parser.parse_script_positioned sql in
        match stmts with
        | [ _; Ast.Select_stmt s2 ] ->
          let e = fst (List.hd s2.Ast.projections) in
          (match Parser.expr_span spans e with
           | Some sp ->
             Alcotest.(check string) "second stmt text" "nope"
               (String.sub sql sp.Diagnostic.start_pos
                  (sp.Diagnostic.stop_pos - sp.Diagnostic.start_pos));
             Alcotest.(check (pair int int)) "line/col" (2, 8)
               (Diagnostic.line_col sql sp.Diagnostic.start_pos)
           | None -> Alcotest.fail "projection has no span")
        | _ -> Alcotest.fail "expected two statements");
    Util.tc "positions: plain entry points stay span-free" (fun () ->
        (* structural equality with positioned parse: the AST itself must
           not carry positions *)
        let sql = "SELECT k, v + 1 AS x FROM t WHERE v > 2" in
        let plain = Parser.parse_statement sql in
        let positioned, _ = Parser.parse_statement_positioned sql in
        Alcotest.(check bool) "same AST" true (plain = positioned));
  ]
