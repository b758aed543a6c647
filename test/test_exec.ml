open Openivm_engine

let base_db () =
  Util.db_with
    [ "CREATE TABLE t(k VARCHAR, v INTEGER, f DOUBLE)";
      "INSERT INTO t VALUES ('a', 1, 1.5), ('a', 2, 2.5), ('b', 3, NULL), \
       (NULL, 4, 0.5), ('c', NULL, 3.5)";
      "CREATE TABLE u(k VARCHAR, w INTEGER)";
      "INSERT INTO u VALUES ('a', 10), ('b', 20), ('d', 40), ('a', 11)" ]

let suite =
  [ Util.tc "projection with expressions" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT v + 1 AS succ FROM t WHERE v IS NOT NULL"
          [ "(2)"; "(3)"; "(4)"; "(5)" ]);
    Util.tc "where with 3vl null" (fun () ->
        let db = base_db () in
        (* v > 2 is NULL for the NULL row -> excluded *)
        Util.check_rows db "SELECT k FROM t WHERE v > 2" [ "(b)"; "(NULL)" ]);
    Util.tc "select star" (fun () ->
        let db = base_db () in
        Alcotest.(check int) "arity"
          3
          (List.length (Database.query db "SELECT * FROM t").Database.schema));
    Util.tc "qualified star over join" (fun () ->
        let db = base_db () in
        let r = Database.query db "SELECT u.* FROM t JOIN u ON t.k = u.k" in
        Alcotest.(check int) "arity" 2 (List.length r.Database.schema));
    Util.tc "order by asc puts nulls first" (fun () ->
        let db = base_db () in
        let r = Database.query db "SELECT v FROM t ORDER BY v" in
        Alcotest.(check (list string)) "order"
          [ "(NULL)"; "(1)"; "(2)"; "(3)"; "(4)" ]
          (Util.rows_of r));
    Util.tc "order by desc with limit offset" (fun () ->
        let db = base_db () in
        let r = Database.query db "SELECT v FROM t WHERE v IS NOT NULL ORDER BY v DESC LIMIT 2 OFFSET 1" in
        Alcotest.(check (list string)) "order" [ "(3)"; "(2)" ] (Util.rows_of r));
    Util.tc "order by unprojected column" (fun () ->
        let db = base_db () in
        let r = Database.query db "SELECT k FROM t WHERE v IS NOT NULL ORDER BY t.v DESC" in
        Alcotest.(check (list string)) "order"
          [ "(NULL)"; "(b)"; "(a)"; "(a)" ]
          (Util.rows_of r));
    Util.tc "distinct" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT DISTINCT k FROM t"
          [ "(a)"; "(b)"; "(c)"; "(NULL)" ]);
    Util.tc "group by with sum/count/avg" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT k, SUM(v), COUNT(v), COUNT(*) FROM t GROUP BY k"
          [ "(a, 3, 2, 2)"; "(b, 3, 1, 1)"; "(NULL, 4, 1, 1)"; "(c, NULL, 0, 1)" ]);
    Util.tc "group by nulls form one group" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k, COUNT(*) FROM t GROUP BY k HAVING k IS NULL"
          [ "(NULL, 1)" ]);
    Util.tc "sum over empty group set" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k, SUM(v) FROM t WHERE v > 100 GROUP BY k" []);
    Util.tc "global aggregate over empty input yields one row" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT COUNT(*), SUM(v) FROM t WHERE v > 100"
          [ "(0, NULL)" ]);
    Util.tc "min/max" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT MIN(v), MAX(v), MIN(k), MAX(k) FROM t"
          [ "(1, 4, a, c)" ]);
    Util.tc "avg" (fun () ->
        let db = base_db () in
        Util.check_scalar db "SELECT AVG(v) FROM t" "2.5");
    Util.tc "count distinct" (fun () ->
        let db = base_db () in
        Util.check_scalar db "SELECT COUNT(DISTINCT k) FROM t" "3");
    Util.tc "sum distinct" (fun () ->
        let db = base_db () in
        (* w values 10, 20, 40, 11; w % 10 gives 0, 0, 0, 1 *)
        Util.check_scalar db "SELECT SUM(DISTINCT w % 10) FROM u" "1");
    Util.tc "having filters groups" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1"
          [ "(a)" ]);
    Util.tc "expression over aggregate" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT k, SUM(v) * 2 + COUNT(*) AS x FROM t WHERE k = 'a' GROUP BY k"
          [ "(a, 8)" ]);
    Util.tc "group by expression" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT v % 2 AS parity, COUNT(*) FROM t WHERE v IS NOT NULL GROUP \
           BY v % 2"
          [ "(0, 2)"; "(1, 2)" ]);
    Util.tc "inner join" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k WHERE t.v = 1"
          [ "(a, 1, 10)"; "(a, 1, 11)" ]);
    Util.tc "left join keeps unmatched" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k = u.k WHERE t.v = 3 OR \
           t.v = 4"
          [ "(b, 20)"; "(NULL, NULL)" ]);
    Util.tc "right join keeps unmatched right" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT u.k, t.v FROM t RIGHT JOIN u ON t.k = u.k AND t.v = 1"
          [ "(a, 1)"; "(a, 1)"; "(b, NULL)"; "(d, NULL)" ]);
    Util.tc "full join" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE l(x INTEGER)"; "INSERT INTO l VALUES (1), (2)";
              "CREATE TABLE r(x INTEGER)"; "INSERT INTO r VALUES (2), (3)" ]
        in
        Util.check_rows db "SELECT l.x, r.x FROM l FULL JOIN r ON l.x = r.x"
          [ "(1, NULL)"; "(2, 2)"; "(NULL, 3)" ]);
    Util.tc "null keys never join" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE l(x INTEGER)"; "INSERT INTO l VALUES (NULL), (1)";
              "CREATE TABLE r(x INTEGER)"; "INSERT INTO r VALUES (NULL), (1)" ]
        in
        Util.check_rows db "SELECT l.x FROM l JOIN r ON l.x = r.x" [ "(1)" ]);
    Util.tc "cross join" (fun () ->
        let db = base_db () in
        Util.check_scalar db "SELECT COUNT(*) FROM t CROSS JOIN u" "20");
    Util.tc "comma join with where becomes equi-join" (fun () ->
        let db = base_db () in
        Util.check_scalar db
          "SELECT COUNT(*) FROM t, u WHERE t.k = u.k" "5");
    Util.tc "theta join (non-equi)" (fun () ->
        let db = base_db () in
        Util.check_scalar db
          "SELECT COUNT(*) FROM t JOIN u ON t.v < u.w AND t.k = u.k" "5");
    Util.tc "self join with aliases" (fun () ->
        let db = base_db () in
        Util.check_scalar db
          "SELECT COUNT(*) FROM u AS a JOIN u AS b ON a.k = b.k AND a.w < b.w"
          "1");
    Util.tc "subquery in from" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT s.k, s.total FROM (SELECT k, SUM(v) AS total FROM t GROUP \
           BY k) AS s WHERE s.total > 3"
          [ "(NULL, 4)" ]);
    Util.tc "cte" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "WITH totals AS (SELECT k, SUM(v) AS s FROM t GROUP BY k) SELECT \
           u.k, totals.s + u.w AS x FROM totals JOIN u ON u.k = totals.k \
           WHERE u.w <= 20"
          [ "(a, 13)"; "(a, 14)"; "(b, 23)" ]);
    Util.tc "cte referenced by later cte" (fun () ->
        let db = base_db () in
        Util.check_scalar db
          "WITH a AS (SELECT v FROM t WHERE v IS NOT NULL), b AS (SELECT v + \
           1 AS v1 FROM a) SELECT SUM(v1) FROM b"
          "14");
    Util.tc "union removes duplicates" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k FROM t UNION SELECT k FROM u"
          [ "(a)"; "(b)"; "(c)"; "(d)"; "(NULL)" ]);
    Util.tc "union all keeps duplicates" (fun () ->
        let db = base_db () in
        Util.check_scalar db
          "SELECT COUNT(*) FROM (SELECT k FROM t UNION ALL SELECT k FROM u) \
           AS q"
          "9");
    Util.tc "except" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k FROM t EXCEPT SELECT k FROM u"
          [ "(c)"; "(NULL)" ]);
    Util.tc "intersect" (fun () ->
        let db = base_db () in
        Util.check_rows db "SELECT k FROM t INTERSECT SELECT k FROM u"
          [ "(a)"; "(b)" ]);
    Util.tc "in-subquery in where" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT k, v FROM t WHERE k IN (SELECT k FROM u WHERE w > 15)"
          [ "(b, 3)" ]);
    Util.tc "not-in-subquery" (fun () ->
        let db = base_db () in
        Util.check_rows db
          "SELECT k FROM t WHERE k NOT IN (SELECT k FROM u WHERE w > 5)"
          [ "(c)" ]);
    Util.tc "select without from" (fun () ->
        let db = Database.create () in
        Util.check_rows db "SELECT 1 + 2 AS x, 'hi' AS s" [ "(3, hi)" ]);
    Util.tc "view expansion" (fun () ->
        let db = base_db () in
        Util.exec db "CREATE VIEW big AS SELECT k, v FROM t WHERE v >= 2";
        Util.check_rows db "SELECT k FROM big" [ "(a)"; "(b)"; "(NULL)" ]);
    Util.tc "explain renders a plan" (fun () ->
        let db = base_db () in
        match Database.exec db "EXPLAIN SELECT k, SUM(v) FROM t WHERE v > 1 GROUP BY k" with
        | Database.Ok_msg plan ->
          Alcotest.(check bool) "mentions group by" true
            (String.length plan > 0
             && (let re = "HASH_GROUP_BY" in
                 let rec contains i =
                   i + String.length re <= String.length plan
                   && (String.sub plan i (String.length re) = re || contains (i + 1))
                 in
                 contains 0))
        | _ -> Alcotest.fail "expected plan text");
    Util.tc "ambiguous column is rejected" (fun () ->
        let db = base_db () in
        match Database.query db "SELECT k FROM t JOIN u ON t.k = u.k" with
        | exception Error.Sql_error msg ->
          Alcotest.(check bool) "mentions ambiguity" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected ambiguity error");
    Util.tc "unknown column is rejected" (fun () ->
        let db = base_db () in
        match Database.query db "SELECT nope FROM t" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Util.tc "unknown table is rejected" (fun () ->
        let db = base_db () in
        match Database.query db "SELECT 1 FROM missing" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    (* --- join row multiplicity and build/probe swap bookkeeping ---
       The hash join builds on the smaller input, so the same query text
       exercises both (build=left, build=right) layouts depending on row
       counts; duplicate keys and duplicate whole rows must multiply out
       identically either way, and LEFT/FULL unmatched tracking must
       survive the swap. No table here has an index, which pins the plan
       to the hash path. *)
    Util.tc "hash join: duplicate build keys multiply matches" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE lt(k VARCHAR, x INTEGER)";
              "INSERT INTO lt VALUES ('a', 1), ('a', 1), ('z', 9)";
              "CREATE TABLE rt(k VARCHAR, y INTEGER)";
              "INSERT INTO rt VALUES ('a', 10), ('a', 11), ('b', 20), \
               ('b', 21), ('c', 30)" ]
        in
        (* lt (3 rows) < rt (5 rows): build side = lt, with the duplicate
           whole row ('a', 1) twice — every copy must pair with every
           matching probe row *)
        Util.check_rows db
          "SELECT lt.x AS x, rt.y AS y FROM lt JOIN rt ON lt.k = rt.k"
          [ "(1, 10)"; "(1, 10)"; "(1, 11)"; "(1, 11)" ]);
    Util.tc "hash join: left outer with build on the left side" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE lt(k VARCHAR, x INTEGER)";
              "INSERT INTO lt VALUES ('a', 1), ('a', 1), ('z', 9)";
              "CREATE TABLE rt(k VARCHAR, y INTEGER)";
              "INSERT INTO rt VALUES ('a', 10), ('a', 11), ('b', 20), \
               ('b', 21), ('c', 30)" ]
        in
        (* the LEFT side is the build side here; its unmatched rows come
           out of the matched_build bookkeeping *)
        Util.check_rows db
          "SELECT lt.x AS x, rt.y AS y FROM lt LEFT JOIN rt ON lt.k = rt.k"
          [ "(1, 10)"; "(1, 10)"; "(1, 11)"; "(1, 11)"; "(9, NULL)" ]);
    Util.tc "hash join: left outer with build on the right side" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE lt(k VARCHAR, x INTEGER)";
              "INSERT INTO lt VALUES ('a', 1), ('a', 1), ('z', 9)";
              "CREATE TABLE rt(k VARCHAR, y INTEGER)";
              "INSERT INTO rt VALUES ('a', 10), ('a', 11), ('b', 20), \
               ('b', 21), ('c', 30)" ]
        in
        (* same data, mirrored: now the LEFT side (rt, 5 rows) is the
           probe side and its unmatched rows come from matched_probe *)
        Util.check_rows db
          "SELECT rt.y AS y, lt.x AS x FROM rt LEFT JOIN lt ON rt.k = lt.k"
          [ "(10, 1)"; "(10, 1)"; "(11, 1)"; "(11, 1)"; "(20, NULL)";
            "(21, NULL)"; "(30, NULL)" ]);
    Util.tc "hash join: full outer with null keys and duplicates" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE lt(k VARCHAR, x INTEGER)";
              "INSERT INTO lt VALUES ('a', 1), ('a', 1), ('z', 9), (NULL, 7)";
              "CREATE TABLE rt(k VARCHAR, y INTEGER)";
              "INSERT INTO rt VALUES ('a', 10), ('a', 11), ('b', 20), \
               ('b', 21), ('c', 30)" ]
        in
        (* NULL join keys match nothing but must still surface padded on
           their own side; both duplicate pairs and all unmatched rows of
           both sides survive *)
        Util.check_rows db
          "SELECT lt.x AS x, rt.y AS y FROM lt FULL JOIN rt ON lt.k = rt.k"
          [ "(1, 10)"; "(1, 10)"; "(1, 11)"; "(1, 11)"; "(9, NULL)";
            "(7, NULL)"; "(NULL, 20)"; "(NULL, 21)"; "(NULL, 30)" ]);
    (* --- index nested loop fast path ---
       A bare scan of an indexed table on the non-probe side, with few
       enough probe rows (probe*2 < indexed rows), takes the INLJ path
       instead of hashing — results must be indistinguishable from it. *)
    Util.tc "inlj: primary-key probe with duplicate probe rows" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE big(k VARCHAR PRIMARY KEY, y INTEGER)";
              "CREATE TABLE probe(k VARCHAR, x INTEGER)";
              "INSERT INTO probe VALUES ('k1', 1), ('k1', 1), ('k3', 2), \
               ('zz', 3)" ]
        in
        for i = 0 to 9 do
          Util.exec db
            (Printf.sprintf "INSERT INTO big VALUES ('k%d', %d)" i (100 + i))
        done;
        (* 4 probe rows * 2 < 10 indexed rows: the PK lookup path runs;
           the duplicate probe row must keep its multiplicity *)
        Util.check_rows db
          "SELECT probe.x AS x, big.y AS y FROM probe JOIN big ON probe.k = big.k"
          [ "(1, 101)"; "(1, 101)"; "(2, 103)" ];
        Util.check_rows db ~msg:"left outer over the pk probe"
          "SELECT probe.x AS x, big.y AS y FROM probe LEFT JOIN big ON \
           probe.k = big.k"
          [ "(1, 101)"; "(1, 101)"; "(2, 103)"; "(3, NULL)" ]);
    Util.tc "inlj: residual predicate demotes matches to unmatched" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE big(k VARCHAR PRIMARY KEY, y INTEGER)";
              "CREATE TABLE probe(k VARCHAR, x INTEGER)";
              "INSERT INTO probe VALUES ('k1', 1), ('k8', 2)" ]
        in
        for i = 0 to 9 do
          Util.exec db
            (Printf.sprintf "INSERT INTO big VALUES ('k%d', %d)" i (100 + i))
        done;
        (* k1 finds its PK row but fails the residual y > 105, so under
           LEFT JOIN it must fall back to the NULL-padded form *)
        Util.check_rows db
          "SELECT probe.x AS x, big.y AS y FROM probe LEFT JOIN big ON \
           probe.k = big.k AND big.y > 105"
          [ "(1, NULL)"; "(2, 108)" ]);
    Util.tc "inlj: secondary index with duplicate indexed keys" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE ev(g VARCHAR, y INTEGER)";
              "CREATE TABLE probe(g VARCHAR, x INTEGER)";
              "INSERT INTO probe VALUES ('g1', 1), ('g9', 2)" ]
        in
        for i = 0 to 7 do
          Util.exec db
            (Printf.sprintf "INSERT INTO ev VALUES ('g%d', %d)" (i mod 4)
               (100 + i))
        done;
        Util.exec db "CREATE INDEX idx_ev_g ON ev(g)";
        (* g1 appears twice in ev: a non-unique index lookup must return
           every copy, and the unmatched probe row must pad under LEFT *)
        Util.check_rows db
          "SELECT probe.x AS x, ev.y AS y FROM probe JOIN ev ON probe.g = ev.g"
          [ "(1, 101)"; "(1, 105)" ];
        Util.check_rows db ~msg:"left outer over the secondary probe"
          "SELECT probe.x AS x, ev.y AS y FROM probe LEFT JOIN ev ON \
           probe.g = ev.g"
          [ "(1, 101)"; "(1, 105)"; "(2, NULL)" ]);
    Util.tc "inlj agrees with the hash join on the same query" (fun () ->
        (* same query text, same data — only the presence of the index
           differs; the two join paths must agree row for row *)
        let mk ~indexed =
          let db =
            Util.db_with
              [ (if indexed then
                   "CREATE TABLE big(k VARCHAR PRIMARY KEY, y INTEGER)"
                 else "CREATE TABLE big(k VARCHAR, y INTEGER)");
                "CREATE TABLE probe(k VARCHAR, x INTEGER)";
                "INSERT INTO probe VALUES ('k2', 1), ('k2', 1), ('k5', 2), \
                 ('nope', 3)" ]
          in
          for i = 0 to 11 do
            Util.exec db
              (Printf.sprintf "INSERT INTO big VALUES ('k%d', %d)" i (200 + i))
          done;
          Util.sorted_rows db
            "SELECT probe.x AS x, big.y AS y FROM probe LEFT JOIN big ON \
             probe.k = big.k"
        in
        Alcotest.(check (list string)) "inlj = hash join" (mk ~indexed:false)
          (mk ~indexed:true));
    Util.tc "regression: inlj normalises float probes of an INTEGER key"
      (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER PRIMARY KEY)";
              "CREATE TABLE f(x DOUBLE)";
              "INSERT INTO f VALUES (5.0), (5.5), (NULL)" ]
        in
        for i = 0 to 9 do
          Util.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
        done;
        (* 3 probe rows * 2 < 10 rows: the INLJ runs; wrapping t in a
           subquery forces the hash join over the same data *)
        Util.check_rows db ~msg:"inlj" "SELECT t.a FROM f JOIN t ON f.x = t.a"
          [ "(5)" ];
        Util.check_rows db ~msg:"hash join"
          "SELECT t.a FROM f JOIN (SELECT a FROM t) AS t ON f.x = t.a"
          [ "(5)" ]);
    Util.tc "inlj: null-safe keys probe the NULL key, strict keys do not"
      (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER, b VARCHAR, PRIMARY KEY (a))";
              "CREATE TABLE p(x INTEGER)";
              "INSERT INTO p VALUES (NULL), (3)" ]
        in
        for i = 0 to 9 do
          Util.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'r%d')" i i)
        done;
        Util.exec db "INSERT INTO t VALUES (NULL, 'null row')";
        (* the same join through the INLJ and, with t wrapped in a
           subquery, through the hash join *)
        let both on want =
          Util.check_rows db ~msg:"inlj"
            ("SELECT t.b FROM p JOIN t ON " ^ on) want;
          Util.check_rows db ~msg:"hash join"
            ("SELECT t.b FROM p JOIN (SELECT a, b FROM t) AS t ON " ^ on)
            want
        in
        both "p.x = t.a" [ "(r3)" ];
        both "p.x = t.a OR (p.x IS NULL AND t.a IS NULL)"
          [ "(r3)"; "(null row)" ]);
  ]
