(** MIN/MAX views under [rederive_affected]. The rederive joins the
    distinct affected keys into the view (DELETE ... USING) and into the
    base tables (the recompute) with NULL-safe equality; these cases pin
    NULL group keys, multi-column keys with and without a covering index,
    and a join shape, checked against a row-engine recompute after every
    batch on both executors — plus the cost: a refresh reads the touched
    groups, not the base table. *)

open Openivm_engine

let flags =
  { Openivm.Flags.default with strategy = Openivm.Flags.Rederive_affected }

let engines = [ Exec.Row; Exec.Vector ]

let check_against_recompute ~msg db v =
  let saved = db.Database.exec_engine in
  db.Database.exec_engine <- Exec.Row;
  let want =
    Fun.protect
      ~finally:(fun () -> db.Database.exec_engine <- saved)
      (fun () -> Openivm.Runner.recompute_rows v)
  in
  Alcotest.(check (list string)) msg want (Openivm.Runner.visible_rows v)

(* Install [view] over [setup] on [engine], then apply each batch,
   refresh, and compare with the recompute. [after] inspects the view
   after batch [i]. *)
let run ?(after = fun _ _ -> ()) ~engine ~setup ~view batches =
  let db = Util.db_with setup in
  db.Database.exec_engine <- engine;
  let v = Openivm.Runner.install ~flags db view in
  let label = Exec.engine_to_string engine in
  Alcotest.(check string) "maintained by rederive" "rederive"
    (Openivm.Propagate.kind_to_string
       v.Openivm.Runner.compiled.Openivm.Compiler.script.Openivm.Propagate.kind);
  check_against_recompute ~msg:(label ^ " initial load") db v;
  List.iteri
    (fun i batch ->
       List.iter (Util.exec db) batch;
       Openivm.Runner.refresh v;
       check_against_recompute ~msg:(Printf.sprintf "%s batch %d" label i) db v;
       after i v)
    batches

let null_group_rows v =
  List.filter
    (fun r -> String.length r >= 5 && String.sub r 0 5 = "(NULL")
    (Openivm.Runner.visible_rows v)

let test_null_group_keys () =
  let minmax =
    "CREATE MATERIALIZED VIEW v AS SELECT g, MIN(x) AS lo, MAX(x) AS hi \
     FROM t GROUP BY g"
  in
  let batches =
    [ [ "INSERT INTO t VALUES (NULL, 5), (NULL, 7), (1, 3)" ];
      [ "DELETE FROM t WHERE g IS NULL AND x = 5" ];
      (* the NULL group empties ... *)
      [ "DELETE FROM t WHERE g IS NULL" ];
      (* ... and comes back *)
      [ "INSERT INTO t VALUES (NULL, 1), (2, 9)" ];
      [ "UPDATE t SET g = NULL WHERE g = 1" ];
      [ "UPDATE t SET g = 3 WHERE g IS NULL"; "INSERT INTO t VALUES (NULL, 4)" ] ]
  in
  let after i v =
    let expect =
      match i with
      | 2 -> [] (* emptied: no row for the NULL group *)
      | 3 -> [ "(NULL, 1, 1)" ]
      | 1 -> [ "(NULL, 7, 7)" ]
      | _ -> null_group_rows v
    in
    Alcotest.(check (list string)) (Printf.sprintf "NULL group after %d" i)
      expect (null_group_rows v)
  in
  List.iter
    (fun index ->
       List.iter
         (fun engine ->
            run ~after ~engine
              ~setup:
                ("CREATE TABLE t(g INTEGER, x INTEGER)"
                 :: index
                 @ [ "INSERT INTO t VALUES (4, 4), (5, 5), (6, 6)" ])
              ~view:minmax batches)
         engines)
    [ []; [ "CREATE INDEX idx_g ON t(g)" ] ]

(* seeded DML over a two-column key (a, b) with NULLs in both columns *)
let two_key_batches ~seed =
  let rng = Random.State.make [| seed |] in
  let key () =
    let a =
      if Random.State.int rng 6 = 0 then "NULL"
      else string_of_int (Random.State.int rng 4)
    in
    let b =
      if Random.State.int rng 6 = 0 then "NULL"
      else Printf.sprintf "'b%d'" (Random.State.int rng 3)
    in
    (a, b)
  in
  let cond (a, b) =
    let one col v = if v = "NULL" then col ^ " IS NULL" else col ^ " = " ^ v in
    one "a" a ^ " AND " ^ one "b" b
  in
  List.init 10 (fun _ ->
      List.init 4 (fun _ ->
          let k = key () in
          match Random.State.int rng 5 with
          | 0 | 1 ->
            Printf.sprintf "INSERT INTO t VALUES (%s, %s, %d), (%s, %s, %d)"
              (fst k) (snd k) (Random.State.int rng 100) (fst k) (snd k)
              (Random.State.int rng 100)
          | 2 ->
            Printf.sprintf "DELETE FROM t WHERE %s AND x %% 2 = %d" (cond k)
              (Random.State.int rng 2)
          | 3 -> Printf.sprintf "DELETE FROM t WHERE %s" (cond k)
          | _ ->
            let a', b' = key () in
            Printf.sprintf "UPDATE t SET a = %s, b = %s WHERE %s AND x < 50" a'
              b' (cond k)))

let test_two_column_key () =
  let initial =
    (* enough rows that the index probe is worthwhile for a few keys *)
    String.concat ", "
      (List.init 200 (fun i ->
           Printf.sprintf "(%d, 'b%d', %d)" (i mod 9) (i mod 5) i))
  in
  List.iter
    (fun index ->
       List.iter
         (fun engine ->
            run ~engine
              ~setup:
                ("CREATE TABLE t(a INTEGER, b VARCHAR, x INTEGER)"
                 :: index
                 @ [ "INSERT INTO t VALUES " ^ initial ])
              ~view:
                "CREATE MATERIALIZED VIEW v AS SELECT a, b, MIN(x) AS lo, \
                 MAX(x) AS hi, COUNT(*) AS n FROM t GROUP BY a, b"
              (two_key_batches ~seed:(List.length index)))
         engines)
    [ []; [ "CREATE INDEX idx_ab ON t(b, a)" ] ]

let test_join_agg () =
  let rng = Random.State.make [| 7 |] in
  let batches =
    List.init 10 (fun _ ->
        List.init 4 (fun _ ->
            match Random.State.int rng 6 with
            | 0 | 1 ->
              Printf.sprintf "INSERT INTO sales VALUES (%d, %d)"
                (Random.State.int rng 12) (Random.State.int rng 500)
            | 2 ->
              Printf.sprintf "INSERT INTO customers VALUES (%d, %s)"
                (Random.State.int rng 12)
                (if Random.State.int rng 4 = 0 then "NULL"
                 else Printf.sprintf "'r%d'" (Random.State.int rng 3))
            | 3 ->
              Printf.sprintf "DELETE FROM sales WHERE cust = %d AND amount %% 2 = 0"
                (Random.State.int rng 12)
            | 4 ->
              Printf.sprintf "DELETE FROM customers WHERE cust = %d"
                (Random.State.int rng 12)
            | _ ->
              Printf.sprintf "UPDATE customers SET region = 'r%d' WHERE cust = %d"
                (Random.State.int rng 3) (Random.State.int rng 12)))
  in
  let seed_rows =
    [ "INSERT INTO customers VALUES "
      ^ String.concat ", "
          (List.init 12 (fun c -> Printf.sprintf "(%d, 'r%d')" c (c mod 3)));
      "INSERT INTO sales VALUES "
      ^ String.concat ", "
          (List.init 120 (fun i -> Printf.sprintf "(%d, %d)" (i mod 12) i)) ]
  in
  List.iter
    (fun indexes ->
       List.iter
         (fun engine ->
            run ~engine
              ~setup:
                ([ "CREATE TABLE sales(cust INTEGER, amount INTEGER)";
                   "CREATE TABLE customers(cust INTEGER, region VARCHAR)" ]
                 @ indexes @ seed_rows)
              ~view:
                "CREATE MATERIALIZED VIEW v AS SELECT customers.region, \
                 MIN(sales.amount) AS lo, MAX(sales.amount) AS hi FROM sales \
                 JOIN customers ON sales.cust = customers.cust GROUP BY \
                 customers.region"
              batches)
         engines)
    [ [];
      [ "CREATE INDEX idx_c_region ON customers(region)";
        "CREATE INDEX idx_s_cust ON sales(cust)" ] ]

(* An indexed MIN/MAX view over 20k rows folds a 2-row delta: the
   refresh's scan and index-scan operators emit a handful of rows (the
   delta tables and the affected keys), never the base table. *)
let test_refresh_reads_touched_groups () =
  List.iter
    (fun engine ->
       let db =
         Util.db_with
           [ "CREATE TABLE g(k INTEGER, x INTEGER)";
             "CREATE INDEX idx_g_k ON g(k)" ]
       in
       db.Database.exec_engine <- engine;
       Table.insert_many
         (Catalog.find_table (Database.catalog db) "g")
         (List.init 20_000 (fun i -> [| Value.Int (i mod 1000); Value.Int i |]));
       let v =
         Openivm.Runner.install ~flags db
           "CREATE MATERIALIZED VIEW v AS SELECT k, MIN(x) AS lo, MAX(x) AS \
            hi FROM g GROUP BY k"
       in
       Util.exec db "INSERT INTO g VALUES (3, -1), (NULL, 7)";
       let rows op =
         Openivm_obs.Metrics.counter_value
           (Openivm_obs.Metrics.counter "minidb_operator_rows_total"
              ~labels:[ ("op", op) ])
       in
       let before = rows "scan" + rows "index_scan" in
       Openivm_obs.Span.set_enabled true;
       Fun.protect
         ~finally:(fun () -> Openivm_obs.Span.set_enabled false)
         (fun () -> Openivm.Runner.refresh v);
       let read = rows "scan" + rows "index_scan" - before in
       Alcotest.(check bool)
         (Printf.sprintf "%s refresh read %d scan rows"
            (Exec.engine_to_string engine) read)
         true (read <= 40);
       check_against_recompute ~msg:"after the refresh" db v)
    engines

let suite =
  [ Util.tc "NULL group keys, a NULL group that empties and returns"
      test_null_group_keys;
    Util.tc "two-column group key, with and without an index"
      test_two_column_key;
    Util.tc "join_agg shape, with and without indexes" test_join_agg;
    Util.tc "refresh reads the touched groups, not the base"
      test_refresh_reads_touched_groups ]
