open Openivm_engine

let plan_of db sql =
  match Database.exec db ("EXPLAIN " ^ sql) with
  | Database.Ok_msg plan -> plan
  | _ -> Alcotest.fail "expected plan"

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let db () =
  Util.db_with
    [ "CREATE TABLE t(k VARCHAR, v INTEGER)";
      "CREATE TABLE u(k VARCHAR, w INTEGER)";
      "INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3)";
      "INSERT INTO u VALUES ('a', 10), ('b', 20)" ]

(* run a query with and without the optimizer; results must agree *)
let optimizer_preserves db sql =
  let with_opt = Util.sorted_rows db sql in
  db.Database.optimizer_enabled <- false;
  let without = Util.sorted_rows db sql in
  db.Database.optimizer_enabled <- true;
  Alcotest.(check (list string)) sql without with_opt

let suite =
  [ Util.tc "constant folding removes tautologies" (fun () ->
        let d = db () in
        let plan = plan_of d "SELECT k FROM t WHERE 1 = 1 AND v > 1" in
        Alcotest.(check bool) "no TRUE left" false (contains plan "TRUE");
        Alcotest.(check bool) "kept real filter" true (contains plan "v > 1"));
    Util.tc "contradictions become an empty input" (fun () ->
        let d = db () in
        let plan = plan_of d "SELECT k FROM t WHERE 1 = 2" in
        Alcotest.(check bool) "empty materialized" true
          (contains plan "MATERIALIZED(empty)"));
    Util.tc "filter pushed below projection" (fun () ->
        let d = db () in
        let plan =
          plan_of d "SELECT * FROM (SELECT k, v + 1 AS v1 FROM t) AS s WHERE s.v1 > 2"
        in
        (* the filter must sit below the projection, rewritten to v + 1 > 2 *)
        Alcotest.(check bool) "substituted" true (contains plan "v + 1 > 2"));
    Util.tc "filter pushed to join sides" (fun () ->
        let d = db () in
        let plan =
          plan_of d
            "SELECT t.k FROM t JOIN u ON t.k = u.k WHERE t.v > 1 AND u.w < 50"
        in
        (* both conjuncts leave the top: no FILTER above the join *)
        let lines = String.split_on_char '\n' plan in
        (match lines with
         | first :: _ ->
           Alcotest.(check bool) "join or project on top" false
             (contains first "FILTER")
         | [] -> Alcotest.fail "empty plan"));
    Util.tc "cross product with equality becomes a join" (fun () ->
        let d = db () in
        let plan = plan_of d "SELECT t.v FROM t, u WHERE t.k = u.k" in
        Alcotest.(check bool) "inner join" true (contains plan "HASH_JOIN(INNER)"));
    Util.tc "projection collapse" (fun () ->
        let d = db () in
        let plan =
          plan_of d "SELECT x + 1 AS y FROM (SELECT v AS x FROM t) AS s"
        in
        (* one PROJECT over the scan, not two *)
        let count_projects =
          List.length
            (List.filter (fun l -> contains l "PROJECT")
               (String.split_on_char '\n' plan))
        in
        Alcotest.(check int) "single project" 1 count_projects);
    Util.tc "optimizer preserves results (joins)" (fun () ->
        optimizer_preserves (db ())
          "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE t.v >= 1 AND u.w > 5");
    Util.tc "optimizer preserves results (cross + filter)" (fun () ->
        optimizer_preserves (db ())
          "SELECT t.k FROM t, u WHERE t.k = u.k AND t.v + u.w > 10");
    Util.tc "optimizer preserves results (union pushdown)" (fun () ->
        optimizer_preserves (db ())
          "SELECT * FROM (SELECT k, v FROM t UNION ALL SELECT k, w FROM u) \
           AS q WHERE q.v > 1");
    Util.tc "optimizer preserves results (aggregates)" (fun () ->
        optimizer_preserves (db ())
          "SELECT k, SUM(v) FROM t WHERE v > 0 AND 2 > 1 GROUP BY k HAVING \
           COUNT(*) > 0");
  ]

let index_suite =
  [ Util.tc "equality on an indexed column becomes an index scan" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(k VARCHAR, v INTEGER)";
              "CREATE INDEX idx_k ON t(k)";
              "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)" ]
        in
        let plan = plan_of d "SELECT v FROM t WHERE k = 'a'" in
        Alcotest.(check bool) "index scan" true (contains plan "INDEX_SCAN");
        Util.check_rows d "SELECT v FROM t WHERE k = 'a'" [ "(1)"; "(3)" ]);
    Util.tc "pk equality becomes a primary key lookup" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER)";
              "INSERT INTO t VALUES (1, 10), (2, 20)" ]
        in
        let plan = plan_of d "SELECT v FROM t WHERE id = 2" in
        Alcotest.(check bool) "pk scan" true (contains plan "PRIMARY KEY");
        Util.check_rows d "SELECT v FROM t WHERE id = 2" [ "(20)" ]);
    Util.tc "residual predicates stay above the index scan" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(k VARCHAR, v INTEGER)";
              "CREATE INDEX idx_k ON t(k)";
              "INSERT INTO t VALUES ('a', 1), ('a', 2), ('a', 3)" ]
        in
        Util.check_rows d "SELECT v FROM t WHERE k = 'a' AND v > 1"
          [ "(2)"; "(3)" ]);
    Util.tc "composite index requires all columns pinned" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER, b INTEGER, v INTEGER)";
              "CREATE INDEX idx_ab ON t(a, b)";
              "INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)" ]
        in
        let partial = plan_of d "SELECT v FROM t WHERE a = 1" in
        Alcotest.(check bool) "no index scan on prefix" false
          (contains partial "INDEX_SCAN");
        let full = plan_of d "SELECT v FROM t WHERE a = 1 AND b = 2" in
        Alcotest.(check bool) "index scan when fully pinned" true
          (contains full "INDEX_SCAN");
        Util.check_rows d "SELECT v FROM t WHERE a = 1 AND b = 2" [ "(20)" ]);
    Util.tc "index scan stays correct through dml" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(k VARCHAR, v INTEGER)";
              "CREATE INDEX idx_k ON t(k)";
              "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)" ]
        in
        Util.exec d "UPDATE t SET v = v * 10 WHERE k = 'a' AND v = 1";
        Util.exec d "DELETE FROM t WHERE k = 'a' AND v = 3";
        Util.exec d "INSERT INTO t VALUES ('a', 99)";
        Util.check_rows d "SELECT v FROM t WHERE k = 'a'" [ "(10)"; "(99)" ];
        Util.check_rows d "SELECT v FROM t WHERE k = 'b'" [ "(2)" ]);
    Util.tc "indexed dml matches unindexed dml" (fun () ->
        let setup stmts = Util.db_with stmts in
        let stmts_base =
          [ "CREATE TABLE t(k VARCHAR, v INTEGER)";
            "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3), ('c', 4), ('a', 5)" ]
        in
        let with_idx = setup (stmts_base @ [ "CREATE INDEX idx_k ON t(k)" ]) in
        let without = setup stmts_base in
        List.iter
          (fun sql -> Util.exec with_idx sql; Util.exec without sql)
          [ "UPDATE t SET v = v + 100 WHERE k = 'a' AND v % 2 = 1";
            "DELETE FROM t WHERE k = 'a' AND v > 102";
            "UPDATE t SET k = 'z' WHERE k = 'b'" ];
        Alcotest.(check (list string)) "same contents"
          (Util.sorted_rows without "SELECT * FROM t")
          (Util.sorted_rows with_idx "SELECT * FROM t"));
    (* index probes must match exactly what a scan matches: keys are
       normalised to the indexed column's declared type, and strict [=]
       against NULL finds nothing *)
    Util.tc "regression: b = NULL through an index finds no row" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER, b INTEGER)";
              "CREATE INDEX idx_b ON t(b)";
              "INSERT INTO t VALUES (1, NULL), (2, 5)" ]
        in
        let sql = "SELECT a FROM t WHERE b = NULL" in
        Alcotest.(check bool) "probes the index" true
          (contains (plan_of d sql) "INDEX_SCAN");
        Util.check_rows d sql [];
        optimizer_preserves d sql);
    Util.tc "regression: integral float probes an INTEGER key" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE p(a INTEGER PRIMARY KEY, v INTEGER)";
              "CREATE TABLE s(a INTEGER, v INTEGER)";
              "CREATE INDEX idx_a ON s(a)";
              "INSERT INTO p VALUES (5, 50), (6, 60)";
              "INSERT INTO s VALUES (5, 50), (6, 60), (5, 51)" ]
        in
        List.iter
          (fun (sql, want) ->
             Alcotest.(check bool) ("probes an index: " ^ sql) true
               (contains (plan_of d sql) "INDEX_SCAN");
             Util.check_rows ~msg:sql d sql want;
             optimizer_preserves d sql)
          [ ("SELECT v FROM p WHERE a = 5.0", [ "(50)" ]);
            ("SELECT v FROM s WHERE a = 5.0", [ "(50)"; "(51)" ]);
            ("SELECT v FROM p WHERE a = 5.5", []);
            ("SELECT v FROM s WHERE a = 'x'", []) ]);
    Util.tc "integer probes a FLOAT key" (fun () ->
        let d =
          Util.db_with
            [ "CREATE TABLE f(x DOUBLE, v INTEGER)";
              "CREATE INDEX idx_x ON f(x)";
              "INSERT INTO f VALUES (5.0, 1), (5.5, 2)" ]
        in
        let sql = "SELECT v FROM f WHERE x = 5" in
        Alcotest.(check bool) "probes the index" true
          (contains (plan_of d sql) "INDEX_SCAN");
        Util.check_rows d sql [ "(1)" ];
        optimizer_preserves d sql);
  ]

let suite = suite @ index_suite

(* index nested-loop joins must agree with hash joins on every join kind *)
let inlj_suite =
  let setup ~indexed =
    let stmts =
      [ "CREATE TABLE big(id INTEGER, grp INTEGER, v INTEGER)";
        "CREATE TABLE small(id INTEGER, w INTEGER)" ]
      @ (if indexed then
           [ "CREATE INDEX idx_big_id ON big(id)";
             "CREATE INDEX idx_big_grp ON big(grp)" ]
         else [])
    in
    let d = Util.db_with stmts in
    (* 300 big rows, 5 small rows: the probe heuristic triggers *)
    let tbl = Catalog.find_table (Database.catalog d) "big" in
    Trigger.without_hooks (Database.triggers d) (fun () ->
        for i = 0 to 299 do
          Table.insert tbl
            [| Value.Int (i mod 50); Value.Int (i mod 7); Value.Int i |]
        done);
    Util.exec d
      "INSERT INTO small VALUES (1, 10), (3, 30), (3, 31), (999, -1), (NULL, 0)";
    d
  in
  let agree name sql =
    Util.tc name (fun () ->
        Alcotest.(check (list string)) "indexed = unindexed"
          (Util.sorted_rows (setup ~indexed:false) sql)
          (Util.sorted_rows (setup ~indexed:true) sql))
  in
  [ agree "inlj inner join agrees"
      "SELECT small.w, big.v FROM small JOIN big ON small.id = big.id";
    agree "inlj inner join (reversed sides) agrees"
      "SELECT small.w, big.v FROM big JOIN small ON small.id = big.id";
    agree "inlj left outer keeps unmatched probe rows"
      "SELECT small.w, big.v FROM small LEFT JOIN big ON small.id = big.id";
    agree "inlj right outer (index on the left input)"
      "SELECT small.w, big.v FROM big RIGHT JOIN small ON small.id = big.id";
    agree "inlj with residual predicate"
      "SELECT small.w, big.v FROM small JOIN big ON small.id = big.id AND \
       big.v % 2 = 0";
    agree "inlj under aggregation"
      "SELECT small.id, COUNT(*), SUM(big.v) FROM small JOIN big ON \
       small.id = big.grp GROUP BY small.id";
  ]

let suite = suite @ inlj_suite
