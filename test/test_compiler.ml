open Openivm_engine

let catalog () =
  Database.catalog
    (Util.db_with
       [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
         "CREATE TABLE sales(cust INTEGER, amount INTEGER)";
         "CREATE TABLE customers(cust INTEGER, region VARCHAR)" ])

let compile ?flags sql = Openivm.Compiler.compile ?flags (catalog ()) sql

let groups_view =
  "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
   SUM(group_value) AS total_value FROM groups GROUP BY group_index"

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let check_contains hay needle =
  if not (contains hay needle) then
    Alcotest.failf "expected to find %S in:\n%s" needle hay

let suite =
  [ Util.tc "compile produces all artifact groups" (fun () ->
        let c = compile groups_view in
        Alcotest.(check bool) "has ddl" true (c.Openivm.Compiler.ddl <> []);
        Alcotest.(check bool) "has metadata" true (c.Openivm.Compiler.metadata_dml <> []);
        Alcotest.(check bool) "has fill" true (c.Openivm.Compiler.script.Openivm.Propagate.fill <> []);
        Alcotest.(check bool) "has combine" true (c.Openivm.Compiler.script.Openivm.Propagate.combine <> []);
        Alcotest.(check bool) "has cleanup" true (c.Openivm.Compiler.script.Openivm.Propagate.cleanup <> []);
        Alcotest.(check bool) "has trigger sql" true (c.Openivm.Compiler.trigger_sql <> []));
    Util.tc "delta table names are per view" (fun () ->
        let c = compile groups_view in
        Alcotest.(check string) "delta base" "delta_query_groups__groups"
          (Openivm.Compiler.delta_table c "groups");
        Alcotest.(check string) "delta view" "delta_query_groups"
          (Openivm.Compiler.delta_view c));
    Util.tc "paper flags keep the paper's names" (fun () ->
        let c = compile ~flags:Openivm.Flags.paper groups_view in
        Alcotest.(check string) "delta base" "delta_groups"
          (Openivm.Compiler.delta_table c "groups");
        Alcotest.(check string) "mult col" "_duckdb_ivm_multiplicity"
          (Openivm.Compiler.multiplicity_column c));
    Util.tc "linear strategy chosen for sum/count" (fun () ->
        let c = compile groups_view in
        Alcotest.(check bool) "linear" true
          (c.Openivm.Compiler.script.Openivm.Propagate.kind = Openivm.Propagate.Linear));
    Util.tc "min/max autoroutes to rederive" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW m AS SELECT group_index, \
             MAX(group_value) AS hi FROM groups GROUP BY group_index"
        in
        Alcotest.(check bool) "rederive" true
          (c.Openivm.Compiler.script.Openivm.Propagate.kind = Openivm.Propagate.Rederive);
        (* affected groups are joined by key, not matched as strings *)
        check_contains (Openivm.Compiler.propagation_sql c)
          "DELETE FROM m USING (SELECT DISTINCT group_index AS __ivm_k1";
        (* rederive recomputes from the base table, driven by the keys *)
        check_contains (Openivm.Compiler.propagation_sql c)
          "AS __ivm_aff CROSS JOIN groups");
    Util.tc "global aggregate uses the stage table" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW g AS SELECT SUM(group_value) AS s FROM groups"
        in
        Alcotest.(check bool) "global" true
          (c.Openivm.Compiler.script.Openivm.Propagate.kind = Openivm.Propagate.Global_linear);
        check_contains (Openivm.Compiler.propagation_sql c) "__ivm_stage_g");
    Util.tc "full recompute flag produces the baseline script" (fun () ->
        let flags = { Openivm.Flags.default with strategy = Openivm.Flags.Full_recompute } in
        let c = compile ~flags groups_view in
        let sql = Openivm.Compiler.propagation_sql c in
        check_contains sql "DELETE FROM query_groups";
        check_contains sql "FROM groups";
        Alcotest.(check bool) "no fill step" true
          (c.Openivm.Compiler.script.Openivm.Propagate.fill = []));
    Util.tc "join view compiles to three fill inserts" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
             SUM(sales.amount) AS total FROM sales JOIN customers ON \
             sales.cust = customers.cust GROUP BY customers.region"
        in
        Alcotest.(check int) "three-join delta" 3
          (List.length c.Openivm.Compiler.script.Openivm.Propagate.fill);
        (* the third term flips multiplicity *)
        check_contains (Openivm.Compiler.propagation_sql c) "<>");
    Util.tc "flat projection view gets the hidden count" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW flat AS SELECT group_index, \
             group_value FROM groups WHERE group_value > 0"
        in
        let setup = Openivm.Compiler.setup_sql c in
        check_contains setup "__ivm_count";
        check_contains setup "PRIMARY KEY (group_index, group_value)");
    Util.tc "where clause propagates into the fill step" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW f AS SELECT group_index, COUNT(*) AS n \
             FROM groups WHERE group_value > 10 GROUP BY group_index"
        in
        check_contains (Openivm.Compiler.propagation_sql c) "group_value > 10");
    Util.tc "postgres dialect emits ON CONFLICT upsert" (fun () ->
        let flags = { Openivm.Flags.default with dialect = Openivm_sql.Dialect.postgres } in
        let c = compile ~flags groups_view in
        let sql = Openivm.Compiler.propagation_sql c in
        check_contains sql "ON CONFLICT (group_index) DO UPDATE SET";
        check_contains sql "EXCLUDED.";
        Alcotest.(check bool) "no duckdb-only syntax" false
          (contains sql "INSERT OR REPLACE"));
    Util.tc "duckdb dialect emits INSERT OR REPLACE" (fun () ->
        let c = compile groups_view in
        check_contains (Openivm.Compiler.propagation_sql c) "INSERT OR REPLACE INTO query_groups");
    Util.tc "unsupported views raise with a reason" (fun () ->
        match
          compile "CREATE MATERIALIZED VIEW bad AS SELECT DISTINCT group_index FROM groups"
        with
        | exception Openivm.Compiler.Unsupported_view _ -> ()
        | _ -> Alcotest.fail "expected Unsupported_view");
    Util.tc "trigger sql covers every base table" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
             COUNT(*) AS n FROM sales JOIN customers ON sales.cust = \
             customers.cust GROUP BY customers.region"
        in
        Alcotest.(check (list string)) "tables" [ "sales"; "customers" ]
          (List.map fst c.Openivm.Compiler.trigger_sql);
        List.iter
          (fun (_, sql) -> check_contains sql "CREATE TRIGGER")
          c.Openivm.Compiler.trigger_sql);
    Util.tc "every emitted statement reparses" (fun () ->
        let c = compile groups_view in
        let all =
          Openivm.Compiler.setup_sql c ^ Openivm.Compiler.propagation_sql c
        in
        let stmts = Openivm_sql.Parser.parse_script all in
        Alcotest.(check bool) "non-empty" true (List.length stmts > 5));
    Util.tc "avg view carries sum and count state" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW a AS SELECT group_index, \
             AVG(group_value) AS m FROM groups GROUP BY group_index"
        in
        let setup = Openivm.Compiler.setup_sql c in
        check_contains setup "__ivm_sum_m";
        check_contains setup "__ivm_nn_m");
  ]
