open Openivm_engine

let suite =
  [ Util.tc "insert values and count" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR)" ] in
        (match Database.exec db "INSERT INTO t VALUES (1,'x'), (2,'y')" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_scalar db "SELECT COUNT(*) FROM t" "2");
    Util.tc "insert with column list fills nulls" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR, c INTEGER)" ] in
        Util.exec db "INSERT INTO t (c, a) VALUES (3, 1)";
        Util.check_rows db "SELECT * FROM t" [ "(1, NULL, 3)" ]);
    Util.tc "insert coerces types" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a DOUBLE, d DATE)" ] in
        Util.exec db "INSERT INTO t VALUES (1, '2024-02-29')";
        Util.check_rows db "SELECT * FROM t" [ "(1.0, 2024-02-29)" ]);
    Util.tc "not null enforced" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER NOT NULL)" ] in
        match Database.exec db "INSERT INTO t VALUES (NULL)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected NOT NULL violation");
    Util.tc "primary key uniqueness enforced" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10)";
        match Database.exec db "INSERT INTO t VALUES (1, 20)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected duplicate key error");
    Util.tc "insert or replace upserts" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10), (2, 20)";
        Util.exec db "INSERT OR REPLACE INTO t VALUES (1, 99), (3, 30)";
        Util.check_rows db "SELECT * FROM t" [ "(1, 99)"; "(2, 20)"; "(3, 30)" ]);
    Util.tc "insert or replace without pk fails" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        match Database.exec db "INSERT OR REPLACE INTO t VALUES (1)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Util.tc "on conflict do nothing" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10)";
        (match Database.exec db "INSERT INTO t VALUES (1, 99), (2, 20) ON CONFLICT DO NOTHING" with
         | Database.Affected 1 -> ()
         | _ -> Alcotest.fail "affected should be 1");
        Util.check_rows db "SELECT * FROM t" [ "(1, 10)"; "(2, 20)" ]);
    Util.tc "composite primary key" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER, b VARCHAR, v INTEGER, PRIMARY KEY (a, b))" ]
        in
        Util.exec db "INSERT INTO t VALUES (1, 'x', 5), (1, 'y', 6)";
        Util.exec db "INSERT OR REPLACE INTO t VALUES (1, 'x', 50)";
        Util.check_rows db "SELECT v FROM t" [ "(50)"; "(6)" ]);
    Util.tc "update with expression" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)";
        (match Database.exec db "UPDATE t SET b = b + a WHERE a >= 2" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_rows db "SELECT b FROM t" [ "(10)"; "(22)"; "(33)" ]);
    Util.tc "delete with predicate" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1), (2), (3), (4)";
        (match Database.exec db "DELETE FROM t WHERE a % 2 = 0" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_rows db "SELECT a FROM t" [ "(1)"; "(3)" ]);
    Util.tc "truncate" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1), (2)";
        Util.exec db "TRUNCATE t";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "0");
    Util.tc "insert from select" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE src(a INTEGER)"; "INSERT INTO src VALUES (1), (2)";
              "CREATE TABLE dst(a INTEGER, doubled INTEGER)" ]
        in
        Util.exec db "INSERT INTO dst SELECT a, a * 2 FROM src";
        Util.check_rows db "SELECT * FROM dst" [ "(1, 2)"; "(2, 4)" ]);
    Util.tc "triggers fire with old and new images" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        let events = ref [] in
        Trigger.register (Database.triggers db) ~table:"t" ~name:"test"
          (fun change ->
             events :=
               (List.length change.Trigger.inserted,
                List.length change.Trigger.deleted)
               :: !events);
        Util.exec db "INSERT INTO t VALUES (1), (2)";
        Util.exec db "UPDATE t SET a = a + 1";
        Util.exec db "DELETE FROM t WHERE a = 3";
        Alcotest.(check (list (pair int int))) "events"
          [ (0, 1); (2, 2); (2, 0) ]
          !events);
    Util.tc "without_hooks suppresses triggers" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        let fired = ref 0 in
        Trigger.register (Database.triggers db) ~table:"t" ~name:"test"
          (fun _ -> incr fired);
        Trigger.without_hooks (Database.triggers db) (fun () ->
            Util.exec db "INSERT INTO t VALUES (1)");
        Util.exec db "INSERT INTO t VALUES (2)";
        Alcotest.(check int) "fired once" 1 !fired);
    Util.tc "secondary index stays consistent through dml" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR)" ] in
        Util.exec db "CREATE INDEX idx_b ON t(b)";
        Util.exec db "INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'x')";
        Util.exec db "DELETE FROM t WHERE a = 1";
        Util.exec db "UPDATE t SET b = 'z' WHERE a = 2";
        let tbl = Catalog.find_table (Database.catalog db) "t" in
        let ix =
          match Table.find_secondary tbl "idx_b" with
          | Some ix -> ix
          | None -> Alcotest.fail "index missing"
        in
        let lookup key =
          List.length (Table.index_lookup tbl ix (Value.encode_key [| Value.Str key |]))
        in
        Alcotest.(check int) "x entries" 1 (lookup "x");
        Alcotest.(check int) "y entries" 0 (lookup "y");
        Alcotest.(check int) "z entries" 1 (lookup "z"));
    Util.tc "table compaction preserves contents" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY)" ] in
        for i = 1 to 200 do
          Util.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
        done;
        Util.exec db "DELETE FROM t WHERE a % 4 <> 0";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "50";
        Util.check_scalar db "SELECT MIN(a) FROM t" "4";
        (* upsert after compaction still routes through the PK index *)
        Util.exec db "INSERT OR REPLACE INTO t VALUES (4)";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "50");
    Util.tc "drop table removes catalog entry" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "DROP TABLE t";
        match Database.query db "SELECT * FROM t" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "table should be gone");
    (* regression: catalog name listings must be sorted, not hashtable
       iteration order — SHOW TABLES output and the fuzz oracle's view
       install order both depend on it being deterministic *)
    Util.tc "catalog name listings are sorted" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE zeta(a INTEGER)";
              "CREATE TABLE alpha(a INTEGER)";
              "CREATE TABLE mid(a INTEGER)";
              "CREATE VIEW v_z AS SELECT a FROM zeta";
              "CREATE VIEW v_a AS SELECT a FROM alpha" ]
        in
        let cat = Database.catalog db in
        Alcotest.(check (list string)) "tables sorted"
          [ "alpha"; "mid"; "zeta" ] (Catalog.table_names cat);
        Alcotest.(check (list string)) "views sorted"
          [ "v_a"; "v_z" ] (Catalog.view_names cat);
        let sorted l = List.sort String.compare l in
        let mvs = Catalog.mat_view_names cat in
        Alcotest.(check (list string)) "mat views sorted" (sorted mvs) mvs);
    Util.tc "regression: indexed point dml normalises probe keys" (fun () ->
        List.iter
          (fun (ddl, index) ->
             let db =
               Util.db_with
                 (ddl :: index
                  @ [ "INSERT INTO t VALUES (5, 1), (6, NULL), (7, 2)" ])
             in
             let affected sql =
               match Database.exec db sql with
               | Database.Affected n -> n
               | _ -> Alcotest.fail "expected a row count"
             in
             Alcotest.(check int) (ddl ^ ": update a = 5.0") 1
               (affected "UPDATE t SET b = 10 WHERE a = 5.0");
             Alcotest.(check int) (ddl ^ ": delete a = 7.5") 0
               (affected "DELETE FROM t WHERE a = 7.5");
             Alcotest.(check int) (ddl ^ ": delete a = NULL") 0
               (affected "DELETE FROM t WHERE a = NULL");
             Alcotest.(check int) (ddl ^ ": delete a = 5.0") 1
               (affected "DELETE FROM t WHERE a = 5.0");
             Util.check_rows ~msg:ddl db "SELECT a, b FROM t"
               [ "(6, NULL)"; "(7, 2)" ])
          [ ("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)", []);
            ("CREATE TABLE t(a INTEGER, b INTEGER)",
             [ "CREATE INDEX idx_a ON t(a)" ]) ]);
  ]

(* DELETE ... USING: every access path (index probe per source row, hash
   of the source, nested loop) must delete exactly what the equivalent
   per-row predicate deletes, each row once, with triggers firing *)
let using_suite =
  let setup target_ddl =
    Util.db_with
      (target_ddl
       @ [ "CREATE TABLE src(k INTEGER, j VARCHAR, lim INTEGER)";
           "INSERT INTO t VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 30), \
            (NULL, 'c', 40), (5, NULL, 50)";
           (* duplicate and NULL keys in the source *)
           "INSERT INTO src VALUES (1, 'a', 100), (1, 'a', 100), (3, 'x', \
            100), (NULL, 'c', 100), (5, NULL, 45), (9, 'z', 0)" ])
  in
  let plain = "CREATE TABLE t(k INTEGER, j VARCHAR, v INTEGER)" in
  let targets =
    [ (* a table-level key admits NULLs, like a view's group key *)
      ("pk", [ "CREATE TABLE t(k INTEGER, j VARCHAR, v INTEGER, PRIMARY KEY \
                (k, j))" ]);
      ("two-column index", [ plain; "CREATE INDEX idx_kj ON t(k, j)" ]);
      ("one-column index", [ plain; "CREATE INDEX idx_k ON t(k)" ]);
      ("no index", [ plain ]) ]
  in
  let case name where ~remaining =
    Util.tc ("delete using: " ^ name) (fun () ->
        List.iter
          (fun (label, ddl) ->
             let db = setup ddl in
             let deleted = ref [] in
             Trigger.register (Database.triggers db) ~table:"t" ~name:"spy"
               (fun c -> deleted := c.Trigger.deleted @ !deleted);
             let sql =
               "DELETE FROM t USING (SELECT k, j, lim FROM src) AS s" ^ where
             in
             let n =
               match Database.exec db sql with
               | Database.Affected n -> n
               | _ -> Alcotest.fail "expected a row count"
             in
             Util.check_rows ~msg:(label ^ ": remaining") db
               "SELECT k, j, v FROM t" remaining;
             Alcotest.(check int) (label ^ ": trigger saw every row") n
               (List.length !deleted);
             Alcotest.(check int) (label ^ ": each row once")
               (5 - List.length remaining) n)
          targets)
  in
  [ case "plain equality on both key columns"
      " WHERE t.k = s.k AND t.j = s.j AND t.v < s.lim"
      ~remaining:
        [ "(2, a, 20)"; "(3, b, 30)"; "(NULL, c, 40)"; "(5, NULL, 50)" ];
    case "null-safe keys match NULL"
      " WHERE (t.k = s.k OR (t.k IS NULL AND s.k IS NULL)) AND (t.j = s.j OR \
       (t.j IS NULL AND s.j IS NULL))"
      ~remaining:[ "(2, a, 20)"; "(3, b, 30)" ];
    case "null-safe key with a residual"
      " WHERE (t.k = s.k OR (t.k IS NULL AND s.k IS NULL)) AND t.v < s.lim"
      ~remaining:[ "(2, a, 20)"; "(5, NULL, 50)" ];
    case "one equi-key column" " WHERE t.k = s.k"
      ~remaining:[ "(2, a, 20)"; "(NULL, c, 40)" ];
    case "no equi-key: nested loop" " WHERE t.v > s.lim AND s.lim > 0"
      ~remaining:[ "(1, a, 10)"; "(2, a, 20)"; "(3, b, 30)"; "(NULL, c, 40)" ];
    case "no where: every row when the source is non-empty" "" ~remaining:[];
    Util.tc "delete using: empty source deletes nothing" (fun () ->
        let db = setup [ plain ] in
        Util.exec db "DELETE FROM t USING (SELECT k FROM src WHERE k > 100) AS s";
        Alcotest.(check int) "all kept" 5
          (List.length (Util.sorted_rows db "SELECT * FROM t")));
    Util.tc "delete using: a plain table source" (fun () ->
        let db = setup [ plain; "CREATE INDEX idx_k ON t(k)" ] in
        Util.exec db "DELETE FROM t USING src WHERE t.k = src.k AND src.lim = 0";
        Util.exec db
          "DELETE FROM t USING src AS s2 WHERE t.k = s2.k AND s2.j = 'x'";
        Util.check_rows db "SELECT k FROM t" [ "(1)"; "(2)"; "(NULL)"; "(5)" ]);
  ]

let suite = suite @ using_suite
