(* refresh_bulk: the paper's batch refresh, in process through
   [Database] and [Runner] with no server. Each round applies one large
   DML batch, reads the four top views (each read lazily refreshes), then
   runs point reads on the now-fresh per-key views. *)

open Openivm_engine
module Runner = Openivm.Runner
module Span = Openivm_obs.Span
module B = Gen.Bulk

let now = Stats.now
let setups = 3  (* 3 s each: more would crowd the run *)

type sut = { db : Database.t; views : (string * Runner.view) list }

let install db =
  let ext = Runner.load db in
  List.map
    (fun (name, create) ->
       match Runner.exec_ext ext create with
       | `Installed v -> (name, v)
       | `Result _ -> failwith ("refresh_bulk: not installed: " ^ name))
    B.views

let setup stmts =
  let t0 = now () in
  let db = Database.create () in
  List.iter (fun sql -> ignore (Database.exec db sql)) stmts;
  let views = install db in
  List.iter (fun (name, sql) -> ignore (Runner.query (List.assoc name views) sql)) B.top_reads;
  ({ db; views }, now () -. t0)

(* Every view, the cascade's inner levels too, against its defining query
   recomputed on the row engine. *)
let gate sut =
  List.filter_map
    (fun (name, v) ->
       let got = Runner.visible_rows v in
       let saved = sut.db.Database.exec_engine in
       sut.db.Database.exec_engine <- Exec.Row;
       let want =
         Fun.protect
           ~finally:(fun () -> sut.db.Database.exec_engine <- saved)
           (fun () -> Runner.recompute_rows v)
       in
       Gate.diff ~view:name ~got ~want)
    sut.views

let exec_dml db sql =
  match Database.exec db sql with
  | Database.Affected n -> Stats.Ok_rows n
  | _ -> Stats.Err "no row count"
  | exception Error.Sql_error msg -> Stats.Err msg

let read v sql =
  match Runner.query v sql with
  | _ -> Stats.Rows
  | exception Error.Sql_error msg -> Stats.Err msg

let untraced ~seed ~seconds ~record =
  let stmts = B.setup_sql ~seed in
  let rec setups_loop k acc =
    let sut, dt = setup stmts in
    if k = 1 then (sut, List.rev (dt :: acc))
    else begin
      Gc.compact ();
      setups_loop (k - 1) (dt :: acc)
    end
  in
  let sut, setup_times = setups_loop setups [] in
  let gen = B.create ~seed in
  let m = E2e.meter () in
  let cpu0 = Host.cpu_seconds () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let timed f =
    let r, dt = Stats.timed f in
    (r, 1000.0 *. dt)
  in
  while now () < deadline do
    List.iter
      (fun (sql, expect) ->
         let rep, ms = timed (fun () -> exec_dml sut.db sql) in
         E2e.write m (Stats.Affected (Some expect)) rep ~ms)
      (B.round gen);
    let (), ms =
      timed (fun () ->
          List.iter
            (fun (name, sql) ->
               ignore (E2e.record m Stats.Answer (read (List.assoc name sut.views) sql)))
            B.top_reads)
    in
    Stats.add m.E2e.refreshes ms;
    List.iter
      (fun (name, sql) ->
         let rep, ms = timed (fun () -> read (List.assoc name sut.views) sql) in
         if E2e.record m Stats.Answer rep then Stats.add m.E2e.reads ms)
      (B.point_reads_sql gen)
  done;
  let wall = now () -. t0 in
  let cpu = Host.cpu_seconds () -. cpu0 in
  let e = { E2e.setups = setup_times; t0; wall; m; rss_mb = Host.rss_peak_mb () } in
  { Run.divergences = gate sut; attempted = m.E2e.ledger.Stats.attempted;
    failed = m.E2e.ledger.Stats.failed; metrics = E2e.compute e;
    record =
      record
      @ [ Run.flags_record [];
          ("samples", E2e.record_json e ~cpu:[ ("load_cpu_s", cpu) ]);
          ("groups_rows", Json.Int (Table.row_count
                                      (Catalog.find_table (Database.catalog sut.db) "groups"))) ] }

let traced ~seed ~seconds ~record =
  let ctx = Layers.create () in
  let sut, _ = setup (B.setup_sql ~seed) in
  let gen = B.create ~seed in
  let ledger = Stats.ledger () in
  let folded0 = Layers.counter "openivm_delta_rows_folded_total" in
  let deadline = now () +. seconds in
  let round = ref 0 in
  while now () < deadline do
    Layers.set_traced ctx (!round mod 2 = 1);
    let traced = ctx.Layers.traced in
    let batch = B.round gen in
    if traced then
      List.iter
        (fun (sql, _) ->
           let _, dt = Layers.timed (fun () -> Openivm_sql.Parser.parse_statement sql) in
           Layers.probe ctx "sql.parse_us" (1e6 *. dt))
        batch;
    let dml = ref 0.0 in
    List.iter
      (fun (sql, expect) ->
         let _, dt =
           Layers.timed (fun () ->
               Layers.op ctx (fun () ->
                   Span.with_span "bench.write" (fun _ ->
                       Stats.record ledger (Stats.Affected (Some expect))
                         (exec_dml sut.db sql))))
         in
         dml := !dml +. dt)
      batch;
    if traced then Layers.probe ctx "engine.dml_ms" (1000.0 *. !dml);
    let read_view name sql =
      let v = List.assoc name sut.views in
      let _, dt =
        Layers.timed (fun () ->
            Layers.read_rows ctx (fun () ->
                Layers.op ctx (fun () ->
                    Span.with_span "bench.read" (fun _ ->
                        Stats.record ledger Stats.Answer (read v sql)))))
      in
      dt
    in
    List.iter
      (fun (name, sql) ->
         let dt = read_view name sql in
         if traced then
           Layers.probe ctx (Printf.sprintf "core.refresh.%s_ms" name) (1000.0 *. dt))
      B.top_reads;
    List.iter (fun (name, sql) -> ignore (read_view name sql)) (B.point_reads_sql gen);
    ctx.Layers.rounds <- ctx.Layers.rounds + 1;
    if traced then ctx.Layers.traced_rounds <- ctx.Layers.traced_rounds + 1;
    incr round
  done;
  Layers.set_traced ctx false;
  let metrics = Layers.finish ctx ~folded0 in
  { Run.divergences = gate sut; attempted = ledger.Stats.attempted;
    failed = ledger.Stats.failed; metrics = Ok metrics;
    record = record @ [ Run.flags_record []; ("rounds", Json.Int !round) ] }
