(* The benchmark's own tests: seeded streams are byte-identical per seed,
   every workload's gate fires on a divergent view, failures and tail
   percentiles are accounted as documented, and BENCHMARK.json lists
   exactly the metrics the program prints. Exits non-zero on a failure. *)

open Perfbench
open Openivm_engine
module Srv = Openivm_server

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* ------------------------------------------------------------------ *)

let serve_stream seed conn n =
  let s = Gen.Serve.stream ~seed ~conn in
  String.concat "\n" (List.init n (fun _ -> Gen.Serve.op_to_string (Gen.Serve.next s)))

let bulk_rounds seed n =
  let t = Gen.Bulk.create ~seed in
  String.concat "\n"
    (List.concat
       (List.init n (fun _ ->
            List.map (fun (sql, k) -> Printf.sprintf "%d %s" k sql) (Gen.Bulk.round t)
            @ List.map snd (Gen.Bulk.point_reads_sql t))))

let htap_stream seed n =
  let t = Gen.Htap.create ~seed in
  String.concat "\n"
    (Gen.Htap.seed_rows t
     @ List.concat (List.init n (fun _ -> Gen.Htap.round t @ [ Gen.Htap.point_read t ])))

let test_determinism () =
  check "serve schema repeats" (Gen.Serve.schema_sql ~seed:7 = Gen.Serve.schema_sql ~seed:7);
  check "serve schema varies" (Gen.Serve.schema_sql ~seed:7 <> Gen.Serve.schema_sql ~seed:8);
  check "serve stream repeats" (serve_stream 7 1 3000 = serve_stream 7 1 3000);
  check "serve streams differ per connection" (serve_stream 7 0 200 <> serve_stream 7 1 200);
  check "serve stream varies" (serve_stream 7 0 200 <> serve_stream 8 0 200);
  check "bulk setup repeats"
    (Gen.Bulk.setup_sql ~seed:7 = Gen.Bulk.setup_sql ~seed:7);
  check "bulk rounds repeat" (bulk_rounds 7 3 = bulk_rounds 7 3);
  check "bulk rounds vary" (bulk_rounds 7 1 <> bulk_rounds 8 1);
  check "htap stream repeats" (htap_stream 7 50 = htap_stream 7 50);
  check "htap stream varies" (htap_stream 7 5 <> htap_stream 8 5)

(* ------------------------------------------------------------------ *)

let test_stats () =
  let open Stats in
  check "designed duplicate-key COMMIT expects ERR"
    (not (is_failure Designed_err (Err "SQL duplicate key")));
  check "designed failure that commits is a failure"
    (is_failure Designed_err (Ok_rows 3));
  check "OVERLOADED fails" (is_failure (Affected None) Overloaded);
  check "OVERLOADED read fails" (is_failure Answer Overloaded);
  check "lost connection fails" (is_failure Answer Lost);
  check "unexpected ERR fails" (is_failure (Affected (Some 1)) (Err "SQL boom"));
  check "wrong row count fails" (is_failure (Affected (Some 1)) (Ok_rows 0));
  check "right row count passes" (not (is_failure (Affected (Some 2)) (Ok_rows 2)));
  let l = ledger () in
  record l Designed_err (Err "dup");
  record l (Affected None) (Ok_rows 1);
  record l Answer Overloaded;
  check "ledger counts" (l.attempted = 3 && l.failed = 1 && l.designed_errs = 1);
  let filled n =
    let s = samples () in
    for i = 1 to n do add s (float_of_int i) done;
    s
  in
  check "p99 withheld at 999 samples" (percentile (filled 999) 0.99 = None);
  check "p99 reported at 1000 samples" (percentile (filled 1000) 0.99 <> None);
  check "p90 withheld at 99 samples" (percentile (filled 99) 0.9 = None);
  check "p90 reported at 100 samples" (percentile (filled 100) 0.9 <> None);
  check "p75 withheld at 39 samples" (percentile (filled 39) 0.75 = None);
  check "median from one sample" (percentile (filled 1) 0.5 = Some 1.0);
  check "median interpolates" (percentile (filled 4) 0.5 = Some 2.5);
  (* five one-second slices of 1 ms samples, one slice 10x slower *)
  let s = samples () in
  for i = 0 to 499 do
    let t = float_of_int i /. 100.0 in
    add_at s (if t >= 2.0 && t < 3.0 then 10.0 else 1.0) t
  done;
  check "a burst in one slice does not move the windowed median"
    (windowed s ~t0:0.0 ~wall:5.0 (fun p -> percentile p 0.5) = Some 1.0);
  check "slice rates are per-slice sums over the slice length"
    (slice_rates s ~t0:0.0 ~wall:5.0 = [| 100.0; 100.0; 1000.0; 100.0; 100.0 |]);
  check "a slice that cannot answer withholds the windowed value"
    (windowed s ~t0:0.0 ~wall:5.0 (fun p -> percentile p 0.99) = None)

(* ------------------------------------------------------------------ *)
(* The gates fire on a divergent view                                  *)

let corrupt db sql = ignore (Database.exec db sql)

let test_bulk_gate () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE groups(gid INTEGER, group_index INTEGER, group_value \
        INTEGER); CREATE TABLE customers(customer_id INTEGER PRIMARY KEY, \
        region VARCHAR); CREATE TABLE sales(sale_id INTEGER, customer_id \
        INTEGER, amount INTEGER); INSERT INTO groups VALUES (1, 1, 600), (2, \
        1, 700), (3, 2, 5); INSERT INTO customers VALUES (1, 'emea'); INSERT \
        INTO sales VALUES (1, 1, 10)");
  let sut = { Refresh_bulk.db; views = Refresh_bulk.install db } in
  ignore (Database.exec db "INSERT INTO groups VALUES (4, 2, 900)");
  check "bulk gate passes on a maintained view" (Refresh_bulk.gate sut = []);
  corrupt db "UPDATE v_minmax SET hi = hi + 1 WHERE group_index = 1";
  (match Refresh_bulk.gate sut with
   | [ d ] -> check "bulk gate names the view" (d.Gate.view = "v_minmax")
   | _ -> check "bulk gate fires on a divergent view" false)

let test_serve_gate () =
  let db = Database.create () in
  let ext = Openivm.Runner.load db in
  ignore
    (Database.exec_script db
       "CREATE TABLE groups(group_index INTEGER, group_value INTEGER); CREATE \
        TABLE customers(customer_id INTEGER PRIMARY KEY, region VARCHAR); \
        CREATE TABLE sales(sale_id INTEGER, customer_id INTEGER, amount \
        INTEGER); INSERT INTO groups VALUES (1, 5), (2, 6); INSERT INTO \
        customers VALUES (1, 'emea'), (2, 'apac'); INSERT INTO sales VALUES \
        (1, 1, 10), (2, 2, 20)");
  let sched = Srv.Scheduler.create ext in
  let s = Srv.Session.create sched ~tenant:"t" in
  List.iter (fun (_, create, _, _) -> ignore (Srv.Session.exec s create)) Gen.Serve.views;
  ignore (Srv.Session.exec s "INSERT INTO sales VALUES (3, 1, 5)");
  let read sql =
    match Srv.Session.exec s sql with
    | Srv.Session.Rows { rows; _ } -> rows
    | _ -> failwith sql
  in
  check "serve gate passes on maintained views" (Serve_oltp.gate read = []);
  ignore (Srv.Session.exec s "BEGIN");
  ignore (Srv.Session.exec s "INSERT INTO sales VALUES (4, 2, 1)");
  ignore (Srv.Session.exec s "INSERT INTO customers VALUES (1, 'dup')");
  (match Srv.Session.exec s "COMMIT" with
   | Srv.Session.Failed _ -> check "duplicate-key COMMIT rolls back" (Serve_oltp.gate read = [])
   | _ -> check "duplicate-key COMMIT answers ERR" false);
  corrupt db "UPDATE v_region SET total = total + 1 WHERE region = 'emea'";
  (match Serve_oltp.gate read with
   | [ d ] -> check "serve gate names the view" (d.Gate.view = "v_region")
   | _ -> check "serve gate fires on a divergent view" false);
  Srv.Session.close s

let test_htap_gate () =
  let dir = Filename.concat (Run.scratch_dir ()) "gate" in
  let sut, _ = Htap_durable.setup ~seed:3 ~dir ~journal:(fun f -> f ()) in
  ignore (Openivm_htap.Pipeline.exec_oltp sut.Htap_durable.p "INSERT INTO groups VALUES ('g0001', 5)");
  corrupt (Openivm_store.Store.db sut.Htap_durable.store) "UPDATE v_minmax SET cnt = cnt + 1";
  let divergences, store, _ = Htap_durable.gate sut in
  Openivm_store.Store.close store;
  check "htap gate fires on a divergent view" (divergences <> [])

(* ------------------------------------------------------------------ *)

let occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_benchmark_json () =
  match Host.read_file "../BENCHMARK.json" with
  | None -> check "BENCHMARK.json readable" false
  | Some json ->
    List.iter
      (fun (name, unit) ->
         check ("BENCHMARK.json lists " ^ name)
           (Serve_oltp.contains json (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" name unit)))
      (E2e.metrics @ Layers.metrics);
    check "BENCHMARK.json lists no other metric"
      (occurrences json "\"unit\":" = List.length E2e.metrics + List.length Layers.metrics)

let () =
  let dir = Run.scratch_dir () in
  Fun.protect ~finally:(fun () -> Run.remove_tree dir) (fun () ->
      test_determinism ();
      test_stats ();
      test_bulk_gate ();
      test_serve_gate ();
      test_htap_gate ();
      test_benchmark_json ());
  (try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ());
  Printf.printf "perfbench selftest: %d checks, %d failed\n" !checks !failures;
  if !failures > 0 then exit 1
