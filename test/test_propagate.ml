(** Structural tests on the generated propagation scripts: statement
    counts and shapes per plan kind, the inclusion–exclusion fill term
    structure for N-way joins, and cleanup coverage. *)

open Openivm_engine
module Ast = Openivm_sql.Ast

let catalog () =
  Database.catalog
    (Util.db_with
       [ "CREATE TABLE a(k INTEGER, v INTEGER)";
         "CREATE TABLE b(k INTEGER, w INTEGER)";
         "CREATE TABLE c(k INTEGER, x INTEGER)";
         "CREATE TABLE d(k INTEGER, f DOUBLE)" ])

let compile ?flags sql = Openivm.Compiler.compile ?flags (catalog ()) sql

let script c = c.Openivm.Compiler.script

let sqls c =
  List.map snd (Openivm.Compiler.script_steps c)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let count_where pred xs = List.length (List.filter pred xs)

let suite =
  [ Util.tc "single-table linear script has 1 fill, 1 combine, 1 prune, 2 cleanups"
      (fun () ->
         let c =
           compile "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM a GROUP BY k"
         in
         let s = script c in
         Alcotest.(check int) "fill" 1 (List.length s.Openivm.Propagate.fill);
         Alcotest.(check int) "combine" 1 (List.length s.Openivm.Propagate.combine);
         Alcotest.(check int) "prune" 1 (List.length s.Openivm.Propagate.prune);
         Alcotest.(check int) "cleanup" 2 (List.length s.Openivm.Propagate.cleanup));
    Util.tc "two-way join emits 3 fill terms, three-way emits 7" (fun () ->
        let c2 =
          compile
            "CREATE MATERIALIZED VIEW v AS SELECT a.k, COUNT(*) AS n FROM a \
             JOIN b ON a.k = b.k GROUP BY a.k"
        in
        Alcotest.(check int) "2-way" 3
          (List.length (script c2).Openivm.Propagate.fill);
        let c3 =
          compile
            "CREATE MATERIALIZED VIEW v AS SELECT a.k, COUNT(*) AS n FROM a \
             JOIN b ON a.k = b.k JOIN c ON b.k = c.k GROUP BY a.k"
        in
        Alcotest.(check int) "3-way" 7
          (List.length (script c3).Openivm.Propagate.fill);
        (* 3 single-delta terms, 3 double-delta (one <>), 1 triple (two <>) *)
        let fills =
          List.filter (fun (p, _) -> p = "fill_delta_view")
            (Openivm.Compiler.script_steps c3)
        in
        let xor_count sql =
          let rec go i acc =
            if i + 2 > String.length sql then acc
            else if String.sub sql i 2 = "<>" then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        let counts = List.sort compare (List.map (fun (_, s) -> xor_count s) fills) in
        Alcotest.(check (list int)) "xor chain lengths"
          [ 0; 0; 0; 2; 2; 2; 4 ] counts);
        (* each XOR chain appears twice: projection and GROUP BY *)
    Util.tc "cleanup clears the delta view and every base delta" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW v AS SELECT a.k, COUNT(*) AS n FROM a \
             JOIN b ON a.k = b.k JOIN c ON b.k = c.k GROUP BY a.k"
        in
        let cleanups =
          List.filter (fun (p, _) -> p = "cleanup") (Openivm.Compiler.script_steps c)
        in
        Alcotest.(check int) "count" 4 (List.length cleanups);
        List.iter
          (fun d ->
             Alcotest.(check bool) d true
               (List.exists (fun (_, s) -> contains s d) cleanups))
          [ "delta_v"; "delta_v__a"; "delta_v__b"; "delta_v__c" ]);
    Util.tc "join condition lands in fill WHERE clauses" (fun () ->
        let c =
          compile
            "CREATE MATERIALIZED VIEW v AS SELECT a.k, COUNT(*) AS n FROM a \
             JOIN b ON a.k = b.k WHERE a.v > 5 GROUP BY a.k"
        in
        List.iter
          (fun (p, sql) ->
             if p = "fill_delta_view" then begin
               Alcotest.(check bool) "has join cond" true (contains sql "a.k = b.k");
               Alcotest.(check bool) "has filter" true (contains sql "a.v > 5")
             end)
          (Openivm.Compiler.script_steps c));
    Util.tc "rederive script: delete-affected then recompute, no prune" (fun () ->
        let flags = { Openivm.Flags.default with strategy = Openivm.Flags.Rederive_affected } in
        let c =
          compile ~flags "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM a GROUP BY k"
        in
        let s = script c in
        Alcotest.(check bool) "kind" true (s.Openivm.Propagate.kind = Openivm.Propagate.Rederive);
        Alcotest.(check int) "combine = delete + insert" 2
          (List.length s.Openivm.Propagate.combine);
        Alcotest.(check int) "no prune" 0 (List.length s.Openivm.Propagate.prune));
    Util.tc "multi-column group rederive joins on every key column" (fun () ->
        let flags = { Openivm.Flags.default with strategy = Openivm.Flags.Rederive_affected } in
        let c =
          compile ~flags
            "CREATE MATERIALIZED VIEW v AS SELECT k, v, COUNT(*) AS n FROM a \
             GROUP BY k, v"
        in
        let all = String.concat "\n" (sqls c) in
        Alcotest.(check bool) "one key column per group column" true
          (contains all "DISTINCT k AS __ivm_k1, v AS __ivm_k2");
        Alcotest.(check bool) "null-safe match on the second key" true
          (contains all "v.v IS NULL AND __ivm_aff.__ivm_k2 IS NULL");
        Alcotest.(check bool) "no string key" false (contains all "||"));
    Util.tc "regression: float-argument SUM/AVG routes to rederive" (fun () ->
        (* fuzz seed 209460: a linear float sum drifts from the recompute
           once deletes retract previously added values (x + d - d loses
           last bits), so SUM/AVG over non-integer arguments must rederive
           like MIN/MAX — under every linear strategy *)
        List.iter
          (fun strategy ->
             let flags = { Openivm.Flags.default with strategy } in
             let grouped =
               compile ~flags
                 "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(f) AS s FROM d \
                  GROUP BY k"
             in
             Alcotest.(check string) "grouped float sum rederives" "rederive"
               (Openivm.Propagate.kind_to_string
                  (script grouped).Openivm.Propagate.kind);
             let global =
               compile ~flags
                 "CREATE MATERIALIZED VIEW v AS SELECT AVG(f) AS a FROM d"
             in
             Alcotest.(check string) "global float avg recomputes" "full"
               (Openivm.Propagate.kind_to_string
                  (script global).Openivm.Propagate.kind))
          [ Openivm.Flags.Upsert_linear; Openivm.Flags.Union_regroup;
            Openivm.Flags.Outer_join_merge ];
        (* integer arguments keep their linear running state *)
        let int_sum =
          compile "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM a \
                   GROUP BY k"
        in
        Alcotest.(check string) "integer sum stays linear" "linear"
          (Openivm.Propagate.kind_to_string
             (script int_sum).Openivm.Propagate.kind));
    Util.tc "global linear uses the stage in four statements" (fun () ->
        let c = compile "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM a" in
        let s = script c in
        Alcotest.(check bool) "kind" true
          (s.Openivm.Propagate.kind = Openivm.Propagate.Global_linear);
        Alcotest.(check int) "combine statements" 4
          (List.length s.Openivm.Propagate.combine));
    Util.tc "full recompute has no fill and no prune" (fun () ->
        let flags = { Openivm.Flags.default with strategy = Openivm.Flags.Full_recompute } in
        let c =
          compile ~flags "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM a GROUP BY k"
        in
        let s = script c in
        Alcotest.(check int) "fill" 0 (List.length s.Openivm.Propagate.fill);
        Alcotest.(check int) "prune" 0 (List.length s.Openivm.Propagate.prune);
        Alcotest.(check int) "combine" 2 (List.length s.Openivm.Propagate.combine));
    Util.tc "flat view fill groups by all columns plus multiplicity" (fun () ->
        let c = compile "CREATE MATERIALIZED VIEW v AS SELECT k, v FROM a WHERE v > 0" in
        match (script c).Openivm.Propagate.fill with
        | [ Ast.Insert { source = Ast.Query q; _ } ] ->
          Alcotest.(check int) "group by arity" 3 (List.length q.Ast.group_by)
        | _ -> Alcotest.fail "expected one INSERT ... SELECT");
    Util.tc "every generated statement parses in both dialects" (fun () ->
        List.iter
          (fun view_sql ->
             List.iter
               (fun dialect ->
                  let flags = { Openivm.Flags.default with dialect } in
                  let c = compile ~flags view_sql in
                  let text =
                    Openivm.Compiler.setup_sql c ^ Openivm.Compiler.propagation_sql c
                  in
                  ignore (Openivm_sql.Parser.parse_script text))
               [ Openivm_sql.Dialect.duckdb; Openivm_sql.Dialect.postgres ])
          [ "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s, AVG(v) AS m FROM a GROUP BY k";
            "CREATE MATERIALIZED VIEW v AS SELECT k, MIN(v) AS lo FROM a GROUP BY k";
            "CREATE MATERIALIZED VIEW v AS SELECT a.k, COUNT(*) AS n FROM a \
             JOIN b ON a.k = b.k GROUP BY a.k";
            "CREATE MATERIALIZED VIEW v AS SELECT SUM(v) AS s FROM a" ]);
  ]
