open Openivm_engine
open Openivm_htap

let gen_value =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e9);
        map (fun f -> Value.Float f)
          (oneofl [ nan; infinity; neg_infinity; 0.0; -0.0; 0x1.5p-42 ]);
        map (fun s -> Value.Str s) (string_size (int_bound 20));
        map (fun d -> Value.Date d) (int_range (-100000) 100000) ])

let gen_row = QCheck.Gen.(map Array.of_list (list_size (int_bound 8) gen_value))

let bridge_qcheck =
  [ QCheck.Test.make ~count:500 ~name:"bridge wire format round-trips"
      (QCheck.make ~print:(fun r -> Row.to_string (Array.of_list r))
         QCheck.Gen.(list_size (int_bound 8) gen_value))
      (fun cells ->
         let row = Array.of_list cells in
         Row.equal row (Bridge.deserialize_row (Bridge.serialize_row row))) ]

let schema_sql =
  "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER);"

let view_sql =
  "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
   SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
   group_index"

let pipeline_matches_oltp p =
  let got =
    List.sort String.compare
      (Util.rows_of
         (Pipeline.query p
            "SELECT group_index, total_value, n FROM query_groups"))
  in
  let expected =
    List.sort String.compare
      (Util.rows_of
         (Oltp.query (Pipeline.oltp p)
            "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) \
             AS n FROM groups GROUP BY group_index"))
  in
  Alcotest.(check (list string)) "cross-system view = OLTP recompute" expected got

let suite =
  [ Util.tc "bridge serialization roundtrips" (fun () ->
        let rows : Row.t list =
          [ [| Value.Int 42; Value.Str "hello"; Value.Null |];
            [| Value.Bool true; Value.Float 2.5 |];
            [| Value.Str "with:colon and 'quote'"; Value.Str "" |];
            (match Value.date_of_string "2024-06-09" with
             | d -> [| d |]) ]
        in
        let b = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 () in
        let back = Bridge.ship b rows in
        Alcotest.(check bool) "equal" true (List.for_all2 Row.equal rows back));
    Util.tc "bridge accounts batches and bytes" (fun () ->
        let b = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 () in
        ignore (Bridge.ship b [ [| Value.Int 1 |] ]);
        ignore (Bridge.ship b [ [| Value.Int 2 |]; [| Value.Int 3 |] ]);
        let batches, rows, bytes = Bridge.stats b in
        Alcotest.(check int) "batches" 2 batches;
        Alcotest.(check int) "rows" 3 rows;
        Alcotest.(check bool) "bytes > 0" true (bytes > 0));
    Util.tc "oltp capture records inserts and deletes" (fun () ->
        let oltp = Oltp.create ~latency:0.0 () in
        ignore (Oltp.exec oltp "CREATE TABLE t(a INTEGER)");
        Oltp.register_capture oltp ~base:"t" ~delta:"delta_t";
        ignore (Oltp.exec oltp "INSERT INTO t VALUES (1), (2)");
        ignore (Oltp.exec oltp "DELETE FROM t WHERE a = 1");
        Alcotest.(check int) "pending" 3 (Oltp.pending oltp ~base:"t");
        let drained = Oltp.drain oltp ~base:"t" in
        Alcotest.(check int) "drained" 3 (List.length drained);
        Alcotest.(check int) "cleared" 0 (Oltp.pending oltp ~base:"t"));
    Util.tc "cross-system view tracks the OLTP tables" (fun () ->
        let p = Pipeline.create ~oltp_latency:0.0 ~schema_sql ~view_sql () in
        ignore (Pipeline.exec_oltp p "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
        pipeline_matches_oltp p;
        ignore (Pipeline.exec_oltp p "INSERT INTO groups VALUES ('a', 10)");
        ignore (Pipeline.exec_oltp p "DELETE FROM groups WHERE group_index = 'b'");
        pipeline_matches_oltp p;
        ignore (Pipeline.exec_oltp p
                  "UPDATE groups SET group_value = group_value * 2 WHERE group_index = 'a'");
        pipeline_matches_oltp p);
    Util.tc "cross-system pipeline survives an empty sync" (fun () ->
        let p = Pipeline.create ~oltp_latency:0.0 ~schema_sql ~view_sql () in
        Alcotest.(check int) "no deltas" 0 (Pipeline.sync p);
        pipeline_matches_oltp p);
    Util.tc "randomized transactional workload stays consistent" (fun () ->
        let p = Pipeline.create ~oltp_latency:0.0 ~schema_sql ~view_sql () in
        let tx = Txgen.create ~seed:99 ~group_domain:8 () in
        List.iter
          (fun sql -> ignore (Pipeline.exec_oltp p sql))
          (Txgen.seed_rows tx 40);
        for _round = 1 to 6 do
          List.iter
            (fun sql -> ignore (Pipeline.exec_oltp p sql))
            (Txgen.batch tx 25);
          pipeline_matches_oltp p
        done);
    Util.tc "join view across systems maintains replicas" (fun () ->
        let p =
          Pipeline.create ~oltp_latency:0.0
            ~schema_sql:
              "CREATE TABLE sales(cust INTEGER, amount INTEGER); CREATE \
               TABLE customers(cust INTEGER, region VARCHAR);"
            ~view_sql:
              "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
               SUM(sales.amount) AS total FROM sales JOIN customers ON \
               sales.cust = customers.cust GROUP BY customers.region"
            ()
        in
        ignore (Pipeline.exec_oltp p "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')");
        ignore (Pipeline.exec_oltp p "INSERT INTO sales VALUES (1, 10), (2, 20), (1, 5)");
        ignore (Pipeline.sync p);
        ignore (Pipeline.exec_oltp p "DELETE FROM sales WHERE amount = 10");
        let got =
          List.sort String.compare
            (Util.rows_of (Pipeline.query p "SELECT region, total FROM rs"))
        in
        Alcotest.(check (list string)) "join view" [ "(eu, 5)"; "(us, 20)" ] got);
    Util.tc "query_without_ivm ships the base tables" (fun () ->
        let p = Pipeline.create ~oltp_latency:0.0 ~schema_sql ~view_sql () in
        ignore (Pipeline.exec_oltp p "INSERT INTO groups VALUES ('a', 1), ('a', 2)");
        let r = Pipeline.query_without_ivm p in
        Alcotest.(check (list string)) "recompute result" [ "(a, 3, 2)" ]
          (Util.rows_of r));
    Util.tc "wire format round-trips edge values" (fun () ->
        let edge_rows : Row.t list =
          [ [| Value.Str ""; Value.Str ":"; Value.Str "12:34"; Value.Str "0:" |];
            [| Value.Str "7:n"; Value.Str "\x00"; Value.Str "1:ss2:tt" |];
            [| Value.Int min_int; Value.Int max_int; Value.Int (-1) |];
            [| Value.Float nan; Value.Float infinity; Value.Float neg_infinity |];
            [| Value.Float 0x1.fffffffffffffp+1023; Value.Float (-0.0);
               Value.Float 5e-324 |];
            [| Value.Null; Value.Null |];
            [| Value.date_of_string "1969-12-31"; Value.date_of_string "9999-01-01" |];
            [||] ]
        in
        List.iter
          (fun row ->
             Alcotest.(check bool)
               (Printf.sprintf "round-trip %s" (Row.to_string row))
               true
               (Row.equal row (Bridge.deserialize_row (Bridge.serialize_row row))))
          edge_rows);
    Util.tc "deserialize rejects corruption honestly" (fun () ->
        (* a date payload that no longer parses must fail, not become NULL *)
        let wire_bad_date = "5:zzzzzd" in
        Alcotest.check_raises "bad date"
          (Error.Sql_error "invalid date \"zzzzz\" (expected YYYY-MM-DD)")
          (fun () -> ignore (Bridge.deserialize_row wire_bad_date));
        let raises wire =
          match Bridge.deserialize_row wire with
          | _ -> Alcotest.failf "expected failure on %S" wire
          | exception Error.Sql_error _ -> ()
        in
        raises "1:xq";       (* bad tag *)
        raises "3:abs";      (* truncated: length overruns the wire *)
        raises "abc";        (* no length prefix *)
        raises "9one:fives"  (* garbage length *));
    Util.tc "batch checksum catches wire corruption" (fun () ->
        let rows = [ [| Value.Int 7; Value.Str "hello" |] ] in
        let b = Bridge.make_batch ~source:"t" ~seq:1 rows in
        Alcotest.(check bool) "clean batch verifies" true (Bridge.verify b);
        Alcotest.(check bool) "rows recovered" true
          (List.for_all2 Row.equal rows (Bridge.batch_rows b));
        let corrupted =
          { b with
            Bridge.payload =
              Array.map
                (fun s ->
                   let bs = Bytes.of_string s in
                   Bytes.set bs 2 'X';
                   Bytes.to_string bs)
                b.Bridge.payload }
        in
        Alcotest.(check bool) "corrupted batch rejected" false
          (Bridge.verify corrupted));
    Util.tc "outbox keeps rows until acknowledged" (fun () ->
        let oltp = Oltp.create ~latency:0.0 () in
        ignore (Oltp.exec oltp "CREATE TABLE t(a INTEGER)");
        Oltp.register_capture oltp ~base:"t" ~delta:"delta_t";
        ignore (Oltp.exec oltp "INSERT INTO t VALUES (1), (2)");
        (match Oltp.begin_batch oltp ~base:"t" with
         | Some (seq, rows) ->
           Alcotest.(check int) "first seq" 1 seq;
           Alcotest.(check int) "two rows" 2 (List.length rows);
           (* a failed transmission costs nothing: same batch again *)
           (match Oltp.begin_batch oltp ~base:"t" with
            | Some (seq', rows') ->
              Alcotest.(check int) "same seq on retry" seq seq';
              Alcotest.(check int) "same rows on retry" 2 (List.length rows')
            | None -> Alcotest.fail "retry lost the batch");
           (* rows captured while in flight queue behind the batch *)
           ignore (Oltp.exec oltp "INSERT INTO t VALUES (3)");
           Alcotest.(check int) "pending counts queued row" 3
             (Oltp.pending oltp ~base:"t");
           Oltp.ack oltp ~base:"t" ~seq;
           Alcotest.(check int) "ack removes only the batch" 1
             (Oltp.pending oltp ~base:"t");
           Oltp.ack oltp ~base:"t" ~seq;  (* duplicate ack is a no-op *)
           Alcotest.(check int) "duplicate ack is a no-op" 1
             (Oltp.pending oltp ~base:"t");
           (match Oltp.begin_batch oltp ~base:"t" with
            | Some (seq2, rows2) ->
              Alcotest.(check int) "next seq" 2 seq2;
              Alcotest.(check int) "queued row ships next" 1 (List.length rows2)
            | None -> Alcotest.fail "queued row lost")
         | None -> Alcotest.fail "expected a batch"));
    Util.tc "double capture registration is rejected" (fun () ->
        let oltp = Oltp.create ~latency:0.0 () in
        ignore (Oltp.exec oltp "CREATE TABLE t(a INTEGER)");
        Oltp.register_capture oltp ~base:"t" ~delta:"delta_t";
        (match Oltp.register_capture oltp ~base:"t" ~delta:"delta_t2" with
         | () -> Alcotest.fail "second registration must fail"
         | exception Error.Sql_error _ -> ());
        (* and every change is still captured exactly once *)
        ignore (Oltp.exec oltp "INSERT INTO t VALUES (1)");
        Alcotest.(check int) "captured once" 1 (Oltp.pending oltp ~base:"t"));
    Util.tc "duplicated batches are applied exactly once" (fun () ->
        let faults =
          Fault.create ~seed:5 { Fault.none with Fault.duplicate = 1.0 }
        in
        let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
        let p = Pipeline.create ~oltp_latency:0.0 ~bridge ~schema_sql ~view_sql () in
        ignore (Pipeline.exec_oltp p "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
        pipeline_matches_oltp p;
        ignore (Pipeline.exec_oltp p "DELETE FROM groups WHERE group_index = 'b'");
        pipeline_matches_oltp p;
        let s = Pipeline.stats p in
        Alcotest.(check bool) "duplicates were detected" true
          (s.Pipeline.deduped > 0));
    Util.tc "dropped batches are retried until delivered" (fun () ->
        (* 60% drop: each batch needs a few attempts but lands within the
           retry budget *)
        let faults = Fault.create ~seed:3 { Fault.none with Fault.drop = 0.6 } in
        let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
        let p =
          Pipeline.create ~oltp_latency:0.0 ~bridge ~backoff_base:1e-6
            ~schema_sql ~view_sql ()
        in
        for i = 1 to 10 do
          ignore (Pipeline.exec_oltp p
                    (Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)" (i mod 3) i));
          (* the view may lag when a batch exhausts its retry budget — the
             batch stays in the outbox and lands on a later sync *)
          ignore (Pipeline.sync p)
        done;
        (* recover replays whatever the retry budget left behind *)
        let r = Pipeline.recover p in
        Alcotest.(check bool) "converged" true r.Pipeline.converged;
        Alcotest.(check bool) "no resync needed — replay sufficed" false
          r.Pipeline.resynced;
        pipeline_matches_oltp p;
        let s = Pipeline.stats p in
        Alcotest.(check bool) "retries happened" true (s.Pipeline.retries > 0);
        Alcotest.(check int) "nothing left unshipped" 0
          (Oltp.pending (Pipeline.oltp p) ~base:"groups"));
    Util.tc "corrupted batches are rejected and resent" (fun () ->
        let faults = Fault.create ~seed:11 { Fault.none with Fault.corrupt = 0.5 } in
        let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
        let p =
          Pipeline.create ~oltp_latency:0.0 ~bridge ~backoff_base:1e-6
            ~schema_sql ~view_sql ()
        in
        for i = 1 to 20 do
          ignore (Pipeline.exec_oltp p
                    (Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)" (i mod 3) i));
          if i mod 4 = 0 then ignore (Pipeline.sync p)
        done;
        pipeline_matches_oltp p;
        let s = Pipeline.stats p in
        Alcotest.(check bool) "checksum failures detected" true
          (s.Pipeline.checksum_failures > 0);
        Alcotest.(check bool) "no corrupt batch was applied" true
          (Pipeline.verify p));
    Util.tc "mid-apply crash rolls back and recovers by replay" (fun () ->
        let faults = Fault.create ~seed:2 { Fault.none with Fault.crash = 1.0 } in
        let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
        let p = Pipeline.create ~oltp_latency:0.0 ~bridge ~schema_sql ~view_sql () in
        ignore (Pipeline.exec_oltp p "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
        ignore (Pipeline.sync p);
        Alcotest.(check bool) "OLAP is down" true (Pipeline.crashed p);
        (* the partial batch was rolled back: OLAP delta table is empty *)
        let delta_name =
          Openivm.Compiler.delta_table
            (Pipeline.view p).Openivm.Runner.compiled "groups"
        in
        Alcotest.(check int) "no partial batch visible" 0
          (Table.row_count
             (Catalog.find_table (Database.catalog (Pipeline.olap p))
                delta_name));
        (* and the batch is still in the outbox *)
        Alcotest.(check bool) "batch unacknowledged" true
          (Oltp.inflight_seq (Pipeline.oltp p) ~base:"groups" <> None);
        (match Pipeline.query p "SELECT * FROM query_groups" with
         | _ -> Alcotest.fail "query on a downed OLAP must fail"
         | exception Error.Sql_error _ -> ());
        let r = Pipeline.recover p in
        Alcotest.(check bool) "replay recovered without resync" true
          (r.Pipeline.converged && not r.Pipeline.resynced);
        pipeline_matches_oltp p);
    Util.tc "full resync rebuilds view and replicas from base" (fun () ->
        let p =
          Pipeline.create ~oltp_latency:0.0
            ~schema_sql:
              "CREATE TABLE sales(cust INTEGER, amount INTEGER); CREATE \
               TABLE customers(cust INTEGER, region VARCHAR);"
            ~view_sql:
              "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
               SUM(sales.amount) AS total FROM sales JOIN customers ON \
               sales.cust = customers.cust GROUP BY customers.region"
            ()
        in
        ignore (Pipeline.exec_oltp p "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')");
        ignore (Pipeline.exec_oltp p "INSERT INTO sales VALUES (1, 10), (2, 20)");
        ignore (Pipeline.sync p);
        (* sabotage the OLAP side: clobber the replica and the view *)
        ignore (Table.truncate
                  (Catalog.find_table (Database.catalog (Pipeline.olap p)) "sales"));
        ignore (Database.exec (Pipeline.olap p) "DELETE FROM rs");
        Alcotest.(check bool) "diverged" false (Pipeline.verify p);
        Pipeline.full_resync p;
        Alcotest.(check bool) "converged after resync" true (Pipeline.verify p);
        (* replicas match the OLTP base tables again *)
        List.iter
          (fun base ->
             let rows db =
               List.sort String.compare
                 (List.map Row.to_string
                    (Table.to_rows (Catalog.find_table (Database.catalog db) base)))
             in
             Alcotest.(check (list string))
               (base ^ " replica matches")
               (rows (Oltp.db (Pipeline.oltp p)))
               (rows (Pipeline.olap p)))
          [ "sales"; "customers" ];
        (* and the pipeline still tracks new traffic afterwards *)
        ignore (Pipeline.exec_oltp p "INSERT INTO sales VALUES (1, 5)");
        ignore (Pipeline.sync p);
        Alcotest.(check bool) "still incremental after resync" true
          (Pipeline.verify p));
    Util.tc "replica misses are counted, strict mode raises" (fun () ->
        let make strict =
          let p =
            Pipeline.create ~oltp_latency:0.0 ~strict_replica:strict
              ~schema_sql:
                "CREATE TABLE sales(cust INTEGER, amount INTEGER); CREATE \
                 TABLE customers(cust INTEGER, region VARCHAR);"
              ~view_sql:
                "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
                 SUM(sales.amount) AS total FROM sales JOIN customers ON \
                 sales.cust = customers.cust GROUP BY customers.region"
              ()
          in
          ignore (Pipeline.exec_oltp p "INSERT INTO customers VALUES (1, 'eu')");
          ignore (Pipeline.exec_oltp p "INSERT INTO sales VALUES (1, 10)");
          ignore (Pipeline.sync p);
          (* simulate divergence: the replica loses a row out of band *)
          ignore (Table.truncate
                    (Catalog.find_table (Database.catalog (Pipeline.olap p)) "sales"));
          p
        in
        let p = make false in
        ignore (Pipeline.exec_oltp p "DELETE FROM sales WHERE amount = 10");
        ignore (Pipeline.sync p);
        Alcotest.(check int) "miss counted" 1
          (Pipeline.stats p).Pipeline.replica_misses;
        let p = make true in
        (* one batch: an insert that lands, then the diverged deletion *)
        ignore (Pipeline.exec_oltp p "INSERT INTO sales VALUES (2, 20)");
        ignore (Pipeline.exec_oltp p "DELETE FROM sales WHERE amount = 10");
        let olap = Pipeline.olap p in
        let delta =
          Openivm.Compiler.delta_table
            (Pipeline.view p).Openivm.Runner.compiled "sales"
        in
        let state () =
          ( Table.row_count (Catalog.find_table (Database.catalog olap) delta),
            Util.sorted_rows olap "SELECT * FROM sales",
            Util.sorted_rows olap
              (Openivm.Metadata.watermark_query ~source:"sales") )
        in
        let before = state () in
        (match Pipeline.sync p with
         | _ -> Alcotest.fail "strict replica must raise on divergence"
         | exception Error.Sql_error _ -> ());
        let rows, replica, wm = state () in
        let rows0, replica0, wm0 = before in
        Alcotest.(check int) "delta table as before the batch" rows0 rows;
        Alcotest.(check (list string)) "replica as before the batch" replica0
          replica;
        Alcotest.(check (list string)) "watermark as before the batch" wm0 wm);
    Util.tc "generated trigger DDL mentions the delta table" (fun () ->
        let db = Util.db_with [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)" ] in
        let c =
          Openivm.Compiler.compile ~flags:Openivm.Flags.paper
            (Database.catalog db) view_sql
        in
        match c.Openivm.Compiler.trigger_sql with
        | [ ("groups", sql) ] ->
          Alcotest.(check bool) "mentions delta" true
            (let needle = "INSERT INTO delta_groups" in
             let rec go i =
               i + String.length needle <= String.length sql
               && (String.sub sql i (String.length needle) = needle || go (i + 1))
             in
             go 0)
        | _ -> Alcotest.fail "expected one trigger");
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) bridge_qcheck
