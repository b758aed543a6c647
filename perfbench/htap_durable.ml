(* htap_durable: the paper's cross-system deployment, in process. OLTP
   statements are captured into the outbox, shipped over the bridge into
   an OLAP side that is a durable [Store] (each applied batch journaled
   through [Store.log_batch]), and folded into a MIN/MAX/COUNT view that
   needs an OLAP-side replica. Writes are cheap; freshness is paid at
   read time. The run ends by closing the store and timing recovery. *)

open Openivm_engine
module P = Openivm_htap.Pipeline
module Store = Openivm_store.Store
module Runner = Openivm.Runner
module Span = Openivm_obs.Span
module H = Gen.Htap

let now = Stats.now
let setups = 5

type sut = { store : Store.t; p : P.t; dir : string; gen : H.t }

(* [journal] wraps every [Store.log_batch] call (the traced run times it). *)
let setup ~seed ~dir ~journal =
  let gen = H.create ~seed in
  let seed_stmts = H.seed_rows gen in
  let t0 = now () in
  let store = Store.open_ ~dir () in
  List.iter
    (fun sql -> ignore (Store.exec store sql))
    (String.split_on_char ';' H.schema_sql);
  let view =
    match Store.exec store H.view_sql with
    | `Installed v -> v
    | `Result _ -> failwith "htap_durable: view not installed"
  in
  let p =
    P.create ~oltp_latency:0.0 ~olap:(Store.db store) ~view
      ~on_apply:(fun ~source ~seq ~replica rows ->
          journal (fun () ->
              Store.log_batch store ~view:H.view_name ~source ~seq ~replica rows))
      ~schema_sql:H.schema_sql ~view_sql:H.view_sql ()
  in
  List.iter (fun sql -> ignore (P.exec_oltp p sql)) seed_stmts;
  ignore (P.sync p);
  ignore (Store.checkpoint store);
  ignore (P.query p "SELECT group_index, lo, hi, cnt FROM v_minmax");
  ({ store; p; dir; gen }, now () -. t0)

let exec_oltp p sql =
  match P.exec_oltp p sql with
  | Database.Affected n -> Stats.Ok_rows n
  | _ -> Stats.Err "no row count"
  | exception Error.Sql_error msg -> Stats.Err msg

let query p sql =
  match P.query p sql with
  | _ -> Stats.Rows
  | exception Error.Sql_error msg -> Stats.Err msg

(* Close the store, reopen the directory and read the view: the restart
   a durable OLAP side pays. Returns the reopened store and the seconds
   from [Store.open_] to the view answering. *)
let recover sut =
  Store.close sut.store;
  let t0 = now () in
  let store = Store.open_ ~dir:sut.dir () in
  (match Store.find_view store H.view_name with
   | Some v -> ignore (Runner.query v "SELECT group_index, lo, hi, cnt FROM v_minmax")
   | None -> failwith "htap_durable: view lost in recovery");
  (store, now () -. t0)

(* The pipeline's view against a recompute over the OLTP state, then the
   reopened store's views against a recompute over its replica. *)
let gate sut =
  let live =
    if P.verify sut.p then []
    else [ { Gate.view = H.view_name ^ " (pipeline)"; missing = []; extra = [] } ]
  in
  let store, recover_s = recover sut in
  let reopened =
    if Store.verify store then []
    else [ { Gate.view = H.view_name ^ " (reopened store)"; missing = []; extra = [] } ]
  in
  (live @ reopened, store, recover_s)

let checkpoint_due round = round > 0 && round mod H.checkpoint_every = 0

let flags_record =
  Run.flags_record
    [ ("oltp_latency", Json.Num 0.0);
      ("checkpoint_every", Json.Int H.checkpoint_every) ]

let untraced ~seed ~seconds ~record =
  let base = Run.scratch_dir () in
  let rec setups_loop k acc =
    let dir = Filename.concat base (Printf.sprintf "store%d" k) in
    let sut, dt = setup ~seed ~dir ~journal:(fun f -> f ()) in
    if k = 1 then (sut, List.rev (dt :: acc))
    else begin
      Store.close sut.store;
      Gc.compact ();
      setups_loop (k - 1) (dt :: acc)
    end
  in
  let sut, setup_times = setups_loop setups [] in
  let m = E2e.meter () in
  let round = ref 0 and checkpoints = ref 0 in
  let cpu0 = Host.cpu_seconds () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let timed f =
    let r, dt = Stats.timed f in
    (r, 1000.0 *. dt)
  in
  while now () < deadline do
    List.iter
      (fun sql ->
         let rep, ms = timed (fun () -> exec_oltp sut.p sql) in
         E2e.write m (Stats.Affected None) rep ~ms)
      (H.round sut.gen);
    let rep, ms = timed (fun () -> query sut.p (H.point_read sut.gen)) in
    if E2e.record m Stats.Answer rep then Stats.add m.E2e.refreshes ms;
    for _ = 1 to H.fresh_reads do
      let rep, ms = timed (fun () -> query sut.p (H.point_read sut.gen)) in
      if E2e.record m Stats.Answer rep then Stats.add m.E2e.reads ms
    done;
    incr round;
    if checkpoint_due !round then begin
      ignore (Store.checkpoint sut.store);
      incr checkpoints
    end
  done;
  let wall = now () -. t0 in
  let cpu = Host.cpu_seconds () -. cpu0 in
  let rss_mb = Host.rss_peak_mb () in
  let divergences, store, recover_s = gate sut in
  let info = Store.last_recovery store in
  Store.close store;
  let e = { E2e.setups = setup_times; t0; wall; m; rss_mb } in
  { Run.divergences; attempted = m.E2e.ledger.Stats.attempted;
    failed = m.E2e.ledger.Stats.failed; metrics = E2e.compute e;
    record =
      record
      @ [ flags_record;
          ("samples", E2e.record_json e ~cpu:[ ("load_cpu_s", cpu) ]);
          ("rounds", Json.Int !round); ("checkpoints", Json.Int !checkpoints);
          ("recover_s", Json.Num recover_s);
          ("replayed_records", Json.Int info.Store.replayed) ] }

let traced ~seed ~seconds ~record =
  let dir = Filename.concat (Run.scratch_dir ()) "traced" in
  let ctx = Layers.create () in
  let journal f =
    if ctx.Layers.traced then begin
      let r, dt = Layers.timed f in
      Layers.probe ctx "store.log_batch_us" (1e6 *. dt);
      r
    end
    else f ()
  in
  let sut, _ = setup ~seed ~dir ~journal in
  let ledger = Stats.ledger () in
  let folded0 = Layers.counter "openivm_delta_rows_folded_total" in
  let shipped0 = Layers.counter "bridge_rows_applied_total" in
  let wal0 = Layers.counter "openivm_wal_bytes_total" in
  let olap = Store.db sut.store in
  let delta =
    Openivm.Compiler.delta_table (P.view sut.p).Runner.compiled "groups"
  in
  let deadline = now () +. seconds in
  let round = ref 0 in
  while now () < deadline do
    Layers.set_traced ctx (!round mod 2 = 1);
    let traced = ctx.Layers.traced in
    let stmts = H.round sut.gen in
    if traced then
      List.iter
        (fun sql ->
           let _, dt = Layers.timed (fun () -> Openivm_sql.Parser.parse_statement sql) in
           Layers.probe ctx "sql.parse_us" (1e6 *. dt))
        stmts;
    let dml = ref 0.0 in
    List.iter
      (fun sql ->
         let _, dt =
           Layers.timed (fun () ->
               Layers.op ctx (fun () ->
                   Span.with_span "bench.write" (fun _ ->
                       Stats.record ledger (Stats.Affected None) (exec_oltp sut.p sql))))
         in
         dml := !dml +. dt;
         if traced then Layers.probe ctx "htap.exec_oltp_us" (1e6 *. dt))
      stmts;
    if traced then begin
      Layers.probe ctx "engine.dml_ms" (1000.0 *. !dml);
      (* what apply_batch copies before it lands a batch *)
      let _, dt =
        Layers.timed (fun () -> Snapshot.capture olap ~tables:[ delta; "groups" ])
      in
      Layers.probe ctx "htap.apply_snapshot_ms" (1000.0 *. dt)
    end;
    let _, dt = Layers.timed (fun () -> Layers.op ctx (fun () -> P.sync sut.p)) in
    if traced then Layers.probe ctx "htap.sync_ms" (1000.0 *. dt);
    let point = H.point_read sut.gen in
    let _, dt =
      Layers.timed (fun () ->
          Layers.read_rows ctx (fun () ->
              Layers.op ctx (fun () ->
                  Span.with_span "bench.read" (fun _ ->
                      Stats.record ledger Stats.Answer (query sut.p point)))))
    in
    if traced then Layers.probe ctx "core.refresh.v_minmax_ms" (1000.0 *. dt);
    for _ = 1 to H.fresh_reads do
      let sql = H.point_read sut.gen in
      Layers.op ctx (fun () ->
          Span.with_span "bench.read" (fun _ ->
              Stats.record ledger Stats.Answer (query sut.p sql)))
    done;
    ctx.Layers.rounds <- ctx.Layers.rounds + 1;
    if traced then ctx.Layers.traced_rounds <- ctx.Layers.traced_rounds + 1;
    incr round;
    if checkpoint_due !round then begin
      let _, dt = Layers.timed (fun () -> Store.checkpoint sut.store) in
      Layers.probe ctx "store.checkpoint_ms" (1000.0 *. dt)
    end
  done;
  let rounds = float_of_int (max 1 !round) in
  let shipped = Layers.counter "bridge_rows_applied_total" - shipped0 in
  Layers.set ctx "htap.rows_shipped" (float_of_int shipped /. rounds);
  Layers.set ctx "store.wal_bytes_per_row"
    (float_of_int (Layers.counter "openivm_wal_bytes_total" - wal0)
     /. float_of_int (max 1 shipped));
  (* recovery, traced *)
  Layers.set_traced ctx true;
  let mark = List.length (Span.spans ()) in
  let divergences, store, recover_s = gate sut in
  Layers.set ctx "store.recover_ms" (1000.0 *. recover_s);
  Layers.set ctx "store.replayed_records"
    (float_of_int (Store.last_recovery store).Store.replayed);
  Layers.set ctx "store.recovery_checkpoint_ms"
    (Layers.span_ms_since mark "recovery.checkpoint");
  Layers.set ctx "store.recovery_replay_ms" (Layers.span_ms_since mark "recovery.replay");
  Store.close store;
  let metrics = Layers.finish ctx ~folded0 in
  { Run.divergences; attempted = ledger.Stats.attempted;
    failed = ledger.Stats.failed; metrics = Ok metrics;
    record = record @ [ flags_record; ("rounds", Json.Int !round) ] }
