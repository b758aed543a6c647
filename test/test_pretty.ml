open Openivm_sql

(* random expression generator for print/parse round-trips *)
let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let lit =
    oneof
      [ map (fun i -> Ast.Lit (Ast.L_int i)) (int_range (-1000) 1000);
        map (fun b -> Ast.Lit (Ast.L_bool b)) bool;
        return (Ast.Lit Ast.L_null);
        map
          (fun s -> Ast.Lit (Ast.L_string s))
          (string_size ~gen:(char_range 'a' 'z') (int_bound 6)) ]
  in
  let column =
    oneof
      [ map (fun c -> Ast.Column (None, "c" ^ string_of_int c)) (int_bound 5);
        map (fun c -> Ast.Column (Some "t", "c" ^ string_of_int c)) (int_bound 5) ]
  in
  let binop =
    oneofl
      [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Neq;
        Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or; Ast.Concat ]
  in
  fix
    (fun self depth ->
       if depth = 0 then oneof [ lit; column ]
       else
         frequency
           [ (2, lit);
             (2, column);
             (4,
              map3
                (fun op a b -> Ast.Binary (op, a, b))
                binop (self (depth - 1)) (self (depth - 1)));
             (1, map (fun a -> Ast.Unary (Ast.Not, a)) (self (depth - 1)));
             (1, map (fun a -> Ast.Unary (Ast.Neg, a)) (self (depth - 1)));
             (1,
              map2
                (fun a es -> Ast.In_list (a, es, false))
                (self (depth - 1))
                (list_size (int_range 1 3) (self 0)));
             (1,
              map3
                (fun a lo hi -> Ast.Between (a, lo, hi, true))
                (self (depth - 1)) (self 0) (self 0));
             (1, map (fun a -> Ast.Is_null (a, false)) (self (depth - 1)));
             (1,
              map3
                (fun c v d -> Ast.Case ([ (c, v) ], Some d))
                (self (depth - 1)) (self (depth - 1)) (self 0));
             (1, map (fun a -> Ast.Cast (a, Ast.T_text)) (self (depth - 1)));
             (1,
              map
                (fun a -> Ast.Func ("coalesce", [ a; Ast.Lit (Ast.L_int 0) ]))
                (self (depth - 1)));
             (1,
              map
                (fun a -> Ast.Aggregate (Ast.Sum, false, Some a))
                (self (depth - 1))) ])
    4

let arb_expr =
  QCheck.make ~print:(Pretty.expr_to_sql Dialect.duckdb) gen_expr

let qcheck =
  [ QCheck.Test.make ~count:1000 ~name:"print/parse expression round-trip"
      arb_expr
      (fun e ->
         let printed = Pretty.expr_to_sql Dialect.duckdb e in
         let reparsed = Parser.parse_expression printed in
         let reprinted = Pretty.expr_to_sql Dialect.duckdb reparsed in
         String.equal printed reprinted) ]

let suite =
  [ Util.tc "keywords quoted as identifiers" (fun () ->
        Alcotest.(check string) "quoted" "\"select\""
          (Dialect.quote_ident Dialect.duckdb "select"));
    Util.tc "mixed-case identifiers quoted" (fun () ->
        Alcotest.(check string) "quoted" "\"MyCol\""
          (Dialect.quote_ident Dialect.duckdb "MyCol"));
    Util.tc "plain identifiers unquoted" (fun () ->
        Alcotest.(check string) "plain" "group_index"
          (Dialect.quote_ident Dialect.duckdb "group_index"));
    Util.tc "string literals escape quotes" (fun () ->
        Alcotest.(check string) "escaped" "'it''s'"
          (Pretty.lit_to_sql (Ast.L_string "it's")));
    Util.tc "precedence needs no spurious parens" (fun () ->
        let e = Parser.parse_expression "a + b * c" in
        Alcotest.(check string) "printed" "a + b * c"
          (Pretty.expr_to_sql Dialect.duckdb e));
    Util.tc "precedence adds required parens" (fun () ->
        let e = Parser.parse_expression "(a + b) * c" in
        Alcotest.(check string) "printed" "(a + b) * c"
          (Pretty.expr_to_sql Dialect.duckdb e));
    Util.tc "left-associative subtraction round-trips" (fun () ->
        let e = Parser.parse_expression "a - (b - c)" in
        Alcotest.(check string) "printed" "a - (b - c)"
          (Pretty.expr_to_sql Dialect.duckdb e));
    Util.tc "float literals keep a decimal point" (fun () ->
        Alcotest.(check string) "2.0" "2.0" (Pretty.lit_to_sql (Ast.L_float 2.0)));
    Util.tc "postgres upsert emission with explicit keys" (fun () ->
        let stmt =
          Parser.parse_statement
            "INSERT OR REPLACE INTO v (k, s) SELECT k, s FROM d"
        in
        let sql =
          Pretty.stmt_to_sql ~upsert_keys:[ "k" ] Dialect.postgres stmt
        in
        Alcotest.(check string) "postgres upsert"
          "INSERT INTO v (k, s) SELECT k, s FROM d ON CONFLICT (k) DO \
           UPDATE SET s = EXCLUDED.s"
          sql);
    Util.tc "delete using round-trips in both dialects" (fun () ->
        let sql =
          "DELETE FROM v USING (SELECT DISTINCT k AS __ivm_k1 FROM d) AS \
           __ivm_aff WHERE v.k = __ivm_aff.__ivm_k1 OR v.k IS NULL AND \
           __ivm_aff.__ivm_k1 IS NULL"
        in
        let stmt = Parser.parse_statement sql in
        (match stmt with
         | Ast.Delete { using = Some (Ast.Subquery (_, "__ivm_aff")); _ } -> ()
         | _ -> Alcotest.fail "USING source not parsed");
        List.iter
          (fun d ->
             let printed = Pretty.stmt_to_sql d stmt in
             Alcotest.(check string) (d.Dialect.name ^ " printed") sql printed;
             Alcotest.(check bool) (d.Dialect.name ^ " reparses") true
               (Parser.parse_statement printed = stmt))
          [ Dialect.duckdb; Dialect.postgres ];
        Alcotest.(check string) "table source"
          "DELETE FROM t USING s AS x WHERE t.a = x.a"
          (Pretty.stmt_to_sql Dialect.postgres
             (Parser.parse_statement "DELETE FROM t USING s x WHERE t.a = x.a")));
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck
