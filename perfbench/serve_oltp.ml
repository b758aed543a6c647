(* serve_oltp: what `openivm serve` users see.

   Untraced: the real `openivm serve` binary runs as a subprocess on a
   unix socket with on-demand ticks; two client threads each drive one
   connection through a seeded closed-loop mix of DML, transactions and
   view reads. Traced: the same streams run in process through
   [Session.exec] from one thread, alternating the two sessions (the span
   stack is global, so a second thread would mis-parent spans). *)

open Openivm_engine
module Srv = Openivm_server
module Wire = Openivm_server.Wire
module Span = Openivm_obs.Span
module S = Gen.Serve

let now = Stats.now
let setups = 5

(* ------------------------------------------------------------------ *)
(* Line-protocol client                                                *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* One request and its response frame; [None] = the connection is gone. *)
let request c req =
  try
    output_string c.oc (Wire.render_request req);
    output_char c.oc '\n';
    flush c.oc;
    match
      Wire.parse_response ~next_line:(fun () ->
          try Some (input_line c.ic) with End_of_file -> None)
    with
    | Ok r -> Some r
    | Error _ -> None
  with Sys_error _ | Unix.Unix_error _ -> None

let hello c tenant =
  match request c (Wire.Hello tenant) with
  | Some (Wire.Session _) -> ()
  | _ -> failwith "serve_oltp: HELLO refused"

let disconnect c =
  ignore (request c Wire.Quit);
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let reply_of = function
  | None -> Stats.Lost
  | Some (Wire.Ok_affected n) -> Stats.Ok_rows n
  | Some (Wire.Rows _) -> Stats.Rows
  | Some (Wire.Err { code; message }) -> Stats.Err (code ^ " " ^ message)
  | Some (Wire.Overloaded _) -> Stats.Overloaded
  | Some _ -> Stats.Err "unexpected frame"

(* ------------------------------------------------------------------ *)
(* The server subprocess                                               *)

type server = { pid : int; sock : string; out : string }

let live : server list ref = ref []

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let stop s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let () = at_exit (fun () -> List.iter stop !live)

(* Start `openivm serve` and wait for its ready line, printed once the
   schema is loaded and the init script has installed the views. *)
let start ~exe ~dir ~schema ~init =
  let sock = Filename.concat dir "serve.sock" in
  let out = Filename.concat dir "serve.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--tick-interval"; "0";
         "--schema-file"; schema; "--init-file"; init |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let s = { pid; sock; out } in
  live := s :: !live;
  let deadline = now () +. 120.0 in
  let rec wait () =
    match Host.read_file out with
    | Some text when contains text "openivm: serving on" -> ()
    | text -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () < deadline -> Unix.sleepf 0.002; wait ()
        | 0, _ -> stop s; failwith "serve_oltp: server not ready after 120s"
        | _ ->
          live := List.filter (fun x -> x.pid <> pid) !live;
          failwith
            ("serve_oltp: server exited: " ^ Option.value ~default:"" text))
  in
  wait ();
  s

(* Prometheus counters scraped from the server's /metrics responder. *)
let scrape sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX sock);
       let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
       output_string oc "GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n";
       flush oc;
       let values = Hashtbl.create 64 in
       (try
          while true do
            match String.split_on_char ' ' (String.trim (input_line ic)) with
            | [ name; v ] when name <> "" && name.[0] <> '#' ->
              (match float_of_string_opt v with
               | Some f -> Hashtbl.replace values name f
               | None -> ())
            | _ -> ()
          done
        with End_of_file | Sys_error _ -> ());
       fun name -> Option.value ~default:0.0 (Hashtbl.find_opt values name))

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)

(* Each view's visible rows against its defining query, both read
   through [query] on the same server. *)
let gate query =
  List.filter_map
    (fun (view, _, read, defining) ->
       Gate.diff ~view ~got:(query read) ~want:(query defining))
    S.views

let wire_rows c sql =
  match request c (Wire.Sql sql) with
  | Some (Wire.Rows { rows; _ }) -> rows
  | _ -> failwith ("serve_oltp: gate read failed: " ^ sql)

(* ------------------------------------------------------------------ *)
(* Untraced run                                                        *)

let timed_request c req =
  let r, dt = Stats.timed (fun () -> request c req) in
  (reply_of r, 1000.0 *. dt)

(* One connection's closed loop until [deadline]. A read that directly
   follows this session's own applied write is also a refresh sample:
   it folds that write's delta. *)
let client_loop ~sock ~seed ~conn ~deadline (m : E2e.meter) =
  let s = S.stream ~seed ~conn in
  let c = connect sock in
  hello c (Printf.sprintf "c%d" conn);
  let after_write = ref false and alive = ref true in
  while !alive && now () < deadline do
    let reply =
      match S.next s with
      | S.Read { sql; _ } ->
        let rep, ms = timed_request c (Wire.Sql sql) in
        if E2e.record m Stats.Answer rep then begin
          Stats.add m.E2e.reads ms;
          if !after_write then Stats.add m.E2e.refreshes ms
        end;
        after_write := false;
        rep
      | S.Write { sql; expect } ->
        let rep, ms = timed_request c (Wire.Sql sql) in
        E2e.write m (Stats.Affected (Some expect)) rep ~ms;
        after_write := (match rep with Stats.Ok_rows _ -> true | _ -> false);
        rep
      | S.Txn { stmts; fails } ->
        let e = if fails then Stats.Designed_err else Stats.Affected None in
        let staged =
          request c Wire.Begin <> None
          && List.for_all
               (fun st ->
                  match request c (Wire.Sql st) with
                  | Some (Wire.Queued _) -> true
                  | _ -> false)
               stmts
        in
        if not staged then begin
          ignore (request c Wire.Rollback);
          let rep = Stats.Err "transaction not staged" in
          ignore (E2e.record m e rep);
          rep
        end
        else begin
          let rep, ms = timed_request c Wire.Commit in
          E2e.write m e rep ~ms;
          (match rep with
           | Stats.Ok_rows _ -> after_write := true
           | Stats.Overloaded -> ignore (request c Wire.Rollback)
           | _ -> ());
          rep
        end
    in
    if reply = Stats.Lost then alive := false
  done;
  if !alive then disconnect c

let setup ~exe ~dir ~schema ~init =
  let t0 = now () in
  let s = start ~exe ~dir ~schema ~init in
  let c = connect s.sock in
  hello c "setup";
  List.iter (fun (_, _, read, _) -> ignore (wire_rows c read)) S.views;
  disconnect c;
  (s, now () -. t0)

let untraced ~exe ~seed ~seconds ~record =
  let dir = Run.scratch_dir () in
  let schema = Filename.concat dir "schema.sql" and init = Filename.concat dir "init.sql" in
  Run.write_file schema (S.schema_sql ~seed);
  Run.write_file init S.init_sql;
  (* set up [setups] times and keep the last server for the load *)
  let rec setups_loop k acc =
    let s, dt = setup ~exe ~dir ~schema ~init in
    if k = 1 then (s, List.rev (dt :: acc))
    else begin stop s; setups_loop (k - 1) (dt :: acc) end
  in
  let srv, setup_times = setups_loop setups [] in
  Fun.protect ~finally:(fun () -> stop srv) (fun () ->
      let meters = Array.init S.connections (fun _ -> E2e.meter ()) in
      let cpu0 = Host.cpu_seconds () and scpu0 = Host.cpu_seconds ~pid:srv.pid () in
      let t0 = now () in
      let deadline = t0 +. seconds in
      let threads =
        Array.mapi
          (fun conn m ->
             Thread.create
               (fun () ->
                  try client_loop ~sock:srv.sock ~seed ~conn ~deadline m
                  with e ->
                    prerr_endline ("serve_oltp: client " ^ Printexc.to_string e);
                    ignore (E2e.record m Stats.Answer Stats.Lost))
               ())
          meters
      in
      Array.iter Thread.join threads;
      let wall = now () -. t0 in
      let cpu = Host.cpu_seconds () -. cpu0 in
      let scpu = Host.cpu_seconds ~pid:srv.pid () -. scpu0 in
      let c = connect srv.sock in
      hello c "gate";
      let divergences = gate (wire_rows c) in
      disconnect c;
      let scraped = scrape srv.sock in
      let m = E2e.merge (Array.to_list meters) in
      let ledger = m.E2e.ledger in
      (* every rolled-back unit must be a designed duplicate-key COMMIT *)
      let rollbacks = int_of_float (scraped "openivm_server_rollbacks_total") in
      let divergences =
        if rollbacks = ledger.Stats.designed_errs then divergences
        else
          { Gate.view = "server.rollback_units";
            missing = [ string_of_int ledger.Stats.designed_errs ];
            extra = [ string_of_int rollbacks ] }
          :: divergences
      in
      let e =
        { E2e.setups = setup_times; t0; wall; m;
          rss_mb = Host.rss_peak_mb ~pid:srv.pid () }
      in
      let ticks = scraped "openivm_server_ticks_total" in
      { Run.divergences; attempted = ledger.Stats.attempted;
        failed = ledger.Stats.failed; metrics = E2e.compute e;
        record =
          record
          @ [ Run.flags_record
                [ ("tick_interval", Json.Num 0.0);
                  ("connections", Json.Int S.connections) ];
              ("samples",
               E2e.record_json e
                 ~cpu:[ ("load_cpu_s", cpu); ("server_cpu_s", scpu) ]);
              ("server",
               Json.Obj
                 [ ("ticks", Json.Num ticks);
                   ("units_per_tick",
                    Json.Num (scraped "openivm_server_tick_units_total" /. Float.max 1.0 ticks));
                   ("multi_session_tick_share",
                    Json.Num
                      (scraped "openivm_server_multi_session_ticks_total" /. Float.max 1.0 ticks));
                   ("rollbacks", Json.Int rollbacks) ]) ] })

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let target_table sql =
  match Openivm_sql.Parser.parse_statement sql with
  | Openivm_sql.Ast.Insert { table; _ }
  | Openivm_sql.Ast.Update { table; _ }
  | Openivm_sql.Ast.Delete { table; _ } -> Some table
  | _ -> None

(* What the scheduler captures before a unit: the touched base tables
   plus every dependent view's delta table. *)
let unit_tables ext stmts =
  let bases = List.sort_uniq String.compare (List.filter_map target_table stmts) in
  let catalog = Database.catalog ext.Openivm.Runner.ext_db in
  bases
  @ List.concat_map
      (fun v ->
         let c = v.Openivm.Runner.compiled in
         List.filter_map
           (fun b ->
              let d = Openivm.Compiler.delta_table c b in
              if List.mem b bases && Catalog.find_table_opt catalog d <> None then Some d
              else None)
           (Openivm.Compiler.base_tables c))
      ext.Openivm.Runner.ext_views

let session_reply = function
  | Srv.Session.Affected n -> Stats.Ok_rows n
  | Srv.Session.Rows _ -> Stats.Rows
  | Srv.Session.Overloaded _ -> Stats.Overloaded
  | Srv.Session.Failed { code; message } -> Stats.Err (code ^ " " ^ message)
  | Srv.Session.Msg _ | Srv.Session.Queued _ -> Stats.Err "unexpected reply"

let block_ops = 20

let traced ~seed ~seconds ~record =
  let dir = Run.scratch_dir () in
  let ctx = Layers.create () in
  let db = Database.create () in
  let ext = Openivm.Runner.load db in
  ignore (Database.exec_script db (S.schema_sql ~seed));
  let quota =
    { Srv.Quota.max_queue_depth = 1024; max_inflight_per_tenant = 64;
      max_batch_per_tick = 256; tick_interval = 0.0 }
  in
  let sock = Filename.concat dir "traced.sock" in
  let srv = Srv.Server.start ~quota ~listen:(`Unix sock) ext in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) (fun () ->
      let sched = Srv.Server.scheduler srv in
      let boot = Srv.Session.create sched ~tenant:"init" in
      List.iter (fun (_, create, _, _) -> ignore (Srv.Session.exec boot create)) S.views;
      Srv.Session.close boot;
      let sessions =
        Array.init S.connections (fun c ->
            Srv.Session.create sched ~tenant:(Printf.sprintf "c%d" c))
      in
      let streams = Array.init S.connections (fun conn -> S.stream ~seed ~conn) in
      let after_write = Array.make S.connections false in
      let pinger = connect sock in
      hello pinger "ping";
      let ledger = Stats.ledger () in
      let folded0 = Layers.counter "openivm_delta_rows_folded_total" in
      let deadline = now () +. seconds in
      let i = ref 0 in
      while now () < deadline do
        Layers.set_traced ctx (!i / block_ops mod 2 = 1);
        let conn = !i mod S.connections in
        let sess = sessions.(conn) in
        let op = S.next streams.(conn) in
        let stmts =
          match op with
          | S.Read { sql; _ } | S.Write { sql; _ } -> [ sql ]
          | S.Txn { stmts; _ } -> stmts
        in
        if ctx.Layers.traced then begin
          List.iter
            (fun sql ->
               let _, dt =
                 Layers.timed (fun () -> Openivm_sql.Parser.parse_statement sql)
               in
               Layers.probe ctx "sql.parse_us" (1e6 *. dt))
            stmts;
          (match op with
           | S.Read _ -> ()
           | S.Write _ | S.Txn _ ->
             let tables = unit_tables ext stmts in
             let _, dt = Layers.timed (fun () -> Snapshot.capture db ~tables) in
             Layers.probe ctx "engine.snapshot_capture_ms" (1000.0 *. dt);
             Layers.probe ctx "engine.snapshot_rows"
               (float_of_int
                  (List.fold_left
                     (fun a t -> a + Table.row_count (Catalog.find_table (Database.catalog db) t))
                     0 tables)));
          if !i mod 10 = 0 then begin
            let _, dt = Layers.timed (fun () -> request pinger Wire.Ping) in
            Layers.probe ctx "server.ping_us" (1e6 *. dt)
          end
        end;
        let exec sql name =
          let t0 = now () in
          let r = Span.with_span name (fun _ -> Srv.Session.exec sess sql) in
          (r, 1000.0 *. (now () -. t0))
        in
        (match op with
         | S.Read { sql; view } ->
           let r, dt =
             Layers.read_rows ctx (fun () -> Layers.op ctx (fun () -> exec sql "bench.read"))
           in
           Stats.record ledger Stats.Answer (session_reply r);
           if ctx.Layers.traced then begin
             ctx.Layers.traced_rounds <- ctx.Layers.traced_rounds + 1;
             Layers.probe ctx "server.session_read_ms" dt;
             if after_write.(conn) then
               Layers.probe ctx (Printf.sprintf "core.refresh.%s_ms" view) dt
           end;
           after_write.(conn) <- false
         | S.Write { sql; expect } ->
           let r, dt = Layers.op ctx (fun () -> exec sql "bench.write") in
           Stats.record ledger (Stats.Affected (Some expect)) (session_reply r);
           if ctx.Layers.traced then Layers.probe ctx "server.session_write_ms" dt;
           after_write.(conn) <- true
         | S.Txn { stmts; fails } ->
           ignore (Srv.Session.exec sess "BEGIN");
           List.iter (fun st -> ignore (Srv.Session.exec sess st)) stmts;
           let r, dt = Layers.op ctx (fun () -> exec "COMMIT" "bench.write") in
           Stats.record ledger
             (if fails then Stats.Designed_err else Stats.Affected None)
             (session_reply r);
           if ctx.Layers.traced then Layers.probe ctx "server.session_write_ms" dt;
           after_write.(conn) <- not fails);
        ctx.Layers.rounds <- ctx.Layers.rounds + 1;
        incr i
      done;
      Layers.set_traced ctx false;
      disconnect pinger;
      let st = Srv.Scheduler.stats sched in
      let ticks = float_of_int (max 1 st.Srv.Scheduler.ticks) in
      Layers.set ctx "server.units_per_tick"
        (float_of_int (st.Srv.Scheduler.units_applied + st.Srv.Scheduler.units_failed)
         /. ticks);
      Layers.set ctx "server.multi_session_tick_share"
        (float_of_int st.Srv.Scheduler.multi_session_ticks /. ticks);
      Layers.set ctx "server.rollback_units" (float_of_int st.Srv.Scheduler.units_failed);
      let read sql =
        match Srv.Session.exec sessions.(0) sql with
        | Srv.Session.Rows { rows; _ } -> rows
        | _ -> failwith ("serve_oltp: gate read failed: " ^ sql)
      in
      let divergences = gate read in
      let divergences =
        if st.Srv.Scheduler.units_failed = ledger.Stats.designed_errs then divergences
        else
          { Gate.view = "server.rollback_units";
            missing = [ string_of_int ledger.Stats.designed_errs ];
            extra = [ string_of_int st.Srv.Scheduler.units_failed ] }
          :: divergences
      in
      Array.iter Srv.Session.close sessions;
      { Run.divergences; attempted = ledger.Stats.attempted;
        failed = ledger.Stats.failed; metrics = Ok (Layers.finish ctx ~folded0);
        record = record @ [ ("ops", Json.Int !i) ] })
