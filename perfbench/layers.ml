(* The traced run's bookkeeping: the per-layer metric table, timing
   probes around calls into each layer, and the harvest of the spans and
   counters the program records itself.

   A traced run alternates blocks with span collection on and off over
   one seeded stream. Probes (a separate parse of each statement, a
   snapshot capture of the tables a unit touches, a PING) run only in
   traced blocks and outside the timed sections, so the two kinds of
   block time the same work and their difference is the tracing
   overhead. *)

module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics

(* name, unit — the order of BENCHMARK.json's per_layer list *)
let metrics =
  [ ("sql.parse_us", "us");
    ("server.session_write_ms", "ms");
    ("server.session_read_ms", "ms");
    ("server.ping_us", "us");
    ("server.apply_unit_ms", "ms");
    ("server.tick_ms", "ms");
    ("server.units_per_tick", "count");
    ("server.multi_session_tick_share", "ratio");
    ("server.rollback_units", "count");
    ("engine.snapshot_capture_ms", "ms");
    ("engine.snapshot_rows", "count");
    ("engine.dml_ms", "ms");
    ("engine.select_ms", "ms");
    ("engine.scan_rows", "count");
    ("engine.index_scan_rows", "count");
    ("engine.join_rows", "count");
    ("engine.aggregate_rows", "count");
    ("engine.rows_per_delta_row", "ratio");
    ("core.install_ms", "ms");
    ("core.initial_load_ms", "ms");
    ("core.refresh_ms", "ms");
    ("core.consolidate_ms", "ms");
    ("core.fill_ms", "ms");
    ("core.combine_ms", "ms");
    ("core.prune_ms", "ms");
    ("core.cleanup_ms", "ms");
    ("core.refresh.v_groups_ms", "ms");
    ("core.refresh.v_minmax_ms", "ms");
    ("core.refresh.v_region_ms", "ms");
    ("core.refresh.v_cascade_ms", "ms");
    ("core.delta_rows_folded", "count");
    ("core.consolidation_ratio", "ratio");
    ("htap.exec_oltp_us", "us");
    ("htap.sync_ms", "ms");
    ("htap.ship_ms", "ms");
    ("htap.apply_snapshot_ms", "ms");
    ("htap.rows_shipped", "count");
    ("store.log_batch_us", "us");
    ("store.checkpoint_ms", "ms");
    ("store.wal_bytes_per_row", "B/row");
    ("store.recover_ms", "ms");
    ("store.recovery_checkpoint_ms", "ms");
    ("store.recovery_replay_ms", "ms");
    ("store.replayed_records", "count");
    ("runtime.alloc_mb_per_op", "MB/op");
    ("runtime.major_gcs", "1/kop");
    ("obs.trace_overhead_pct", "%") ]

let now = Stats.now

type ctx = {
  probes : (string, float * int) Hashtbl.t;  (** name -> (sum, count) *)
  values : (string, float) Hashtbl.t;        (** metrics set outright *)
  mutable traced : bool;
  mutable traced_time : float;
  mutable traced_ops : int;
  mutable plain_time : float;
  mutable plain_ops : int;
  mutable plain_alloc : float;
  mutable plain_majors : int;
  mutable rounds : int;  (** rounds of both kinds; serve_oltp: ops *)
  mutable traced_rounds : int;  (** traced rounds; serve_oltp: traced reads *)
  read_rows : (string, int) Hashtbl.t;  (** operator rows during traced reads *)
}

let create () =
  Metrics.reset_values ();
  Span.reset ();
  Span.set_enabled true;
  { probes = Hashtbl.create 32; values = Hashtbl.create 32; traced = true;
    traced_time = 0.0; traced_ops = 0; plain_time = 0.0; plain_ops = 0;
    plain_alloc = 0.0; plain_majors = 0; rounds = 0; traced_rounds = 0;
    read_rows = Hashtbl.create 8 }

let set_traced ctx b =
  ctx.traced <- b;
  Span.set_enabled b

(* Probes are named after the metric they feed and recorded in its unit;
   the metric is their mean. *)
let probe ctx name v =
  let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt ctx.probes name) in
  Hashtbl.replace ctx.probes name (s +. v, n + 1)

let set ctx name v = Hashtbl.replace ctx.values name v

let mean ctx name =
  match Hashtbl.find_opt ctx.probes name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.0

(* Time [f] as one op of the current block kind. Untraced blocks also
   meter allocation and major collections. *)
let op ctx f =
  if ctx.traced then begin
    let t0 = now () in
    let r = f () in
    ctx.traced_time <- ctx.traced_time +. (now () -. t0);
    ctx.traced_ops <- ctx.traced_ops + 1;
    r
  end
  else begin
    let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    ctx.plain_time <- ctx.plain_time +. dt;
    ctx.plain_ops <- ctx.plain_ops + 1;
    ctx.plain_alloc <- ctx.plain_alloc +. (Gc.allocated_bytes () -. a0);
    ctx.plain_majors <-
      ctx.plain_majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
    r
  end

let timed = Stats.timed

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let counter name =
  List.fold_left
    (fun acc (n, l, _, v) ->
       match v with
       | Metrics.Counter_v c when n = name && l = [] -> acc + c
       | _ -> acc)
    0 (Metrics.snapshot ())

let operator_rows () =
  List.fold_left
    (fun acc (n, l, _, v) ->
       match (v, l) with
       | Metrics.Counter_v c, [ ("op", op) ] when n = "minidb_operator_rows_total"
         ->
         (op, c) :: acc
       | _ -> acc)
    [] (Metrics.snapshot ())

(* Operator rows emitted, and delta rows folded, while [f] runs (a view
   read and its refresh); counted only in traced blocks, where the
   executors count. *)
let read_rows ctx f =
  if not ctx.traced then f ()
  else begin
    let snap () =
      ("_folded", counter "openivm_delta_rows_folded_total") :: operator_rows ()
    in
    let before = snap () in
    let r = f () in
    List.iter
      (fun (op, c) ->
         let c0 = Option.value ~default:0 (List.assoc_opt op before) in
         let acc = Option.value ~default:0 (Hashtbl.find_opt ctx.read_rows op) in
         Hashtbl.replace ctx.read_rows op (acc + c - c0))
      (snap ());
    r
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span_stat = { mutable count : int; mutable total : float; mutable self : float }

(* Per span name: occurrences, total duration and self time (duration
   minus the parts its direct children cover; refresh is single-domain
   here, so children never overlap). *)
let span_stats () =
  let spans = List.filter (fun s -> s.Span.closed) (Span.spans ()) in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       match s.Span.parent with
       | Some p ->
         Hashtbl.replace child p
           (s.Span.duration +. Option.value ~default:0.0 (Hashtbl.find_opt child p))
       | None -> ())
    spans;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
       let st =
         match Hashtbl.find_opt tbl s.Span.name with
         | Some st -> st
         | None ->
           let st = { count = 0; total = 0.0; self = 0.0 } in
           Hashtbl.add tbl s.Span.name st;
           st
       in
       st.count <- st.count + 1;
       st.total <- st.total +. s.Span.duration;
       st.self <-
         st.self
         +. Float.max 0.0
              (s.Span.duration
               -. Option.value ~default:0.0 (Hashtbl.find_opt child s.Span.id)))
    spans;
  tbl

(* Total milliseconds of the spans named [name] recorded after the first
   [mark] spans. *)
let span_ms_since mark name =
  List.fold_left
    (fun acc s ->
       if s.Span.id > mark && s.Span.name = name && s.Span.closed then
         acc +. (1000.0 *. s.Span.duration)
       else acc)
    0.0 (Span.spans ())

(* Time in [bench.read] spans outside the outermost [refresh] spans
   beneath them: what a read costs once its view is fresh. *)
let select_ms () =
  let spans = List.filter (fun s -> s.Span.closed) (Span.spans ()) in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let reads = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.Span.name = "bench.read" then Hashtbl.replace reads s.Span.id (s.Span.duration, 0.0))
    spans;
  List.iter
    (fun s ->
       if s.Span.name = "refresh" then
         let rec up = function
           | None -> ()
           | Some p -> (
               match Hashtbl.find_opt by_id p with
               | None -> ()
               | Some ps when ps.Span.name = "refresh" -> ()
               | Some ps when ps.Span.name = "bench.read" ->
                 let d, r = Hashtbl.find reads p in
                 Hashtbl.replace reads p (d, r +. s.Span.duration)
               | Some ps -> up ps.Span.parent)
         in
         up s.Span.parent)
    spans;
  let sum, n =
    Hashtbl.fold (fun _ (d, r) (s, n) -> (s +. Float.max 0.0 (d -. r), n + 1)) reads (0.0, 0)
  in
  if n = 0 then 0.0 else 1000.0 *. sum /. float_of_int n

(* The rows consolidation removed over the rows that went into it, from
   the cascade.consolidate spans' attributes. *)
let consolidation_ratio () =
  let before, removed =
    List.fold_left
      (fun (b, r) s ->
         if s.Span.name = "cascade.consolidate" && s.Span.closed then
           match
             (List.assoc_opt "rows_before" s.Span.attrs,
              List.assoc_opt "rows_after" s.Span.attrs)
           with
           | Some (Span.Int x), Some (Span.Int y) -> (b + x, r + x - y)
           | _ -> (b, r)
         else (b, r))
      (0, 0) (Span.spans ())
  in
  if before = 0 then 0.0 else float_of_int removed /. float_of_int before

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

let per_span_ms st name ~self =
  match Hashtbl.find_opt st name with
  | Some s when s.count > 0 ->
    1000.0 *. (if self then s.self else s.total) /. float_of_int s.count
  | _ -> 0.0

(* Fill in what every workload derives the same way, then list every
   metric, 0 where the layer was idle. [folded0] is the folded-rows
   counter when the measured phase began. *)
let finish ctx ~folded0 =
  Span.set_enabled false;
  let st = span_stats () in
  let setd name v = if not (Hashtbl.mem ctx.values name) then set ctx name v in
  Hashtbl.iter (fun name _ -> setd name (mean ctx name)) ctx.probes;
  let span_mean name ~self = per_span_ms st name ~self in
  setd "server.apply_unit_ms" (span_mean "server.apply_unit" ~self:false);
  setd "server.tick_ms" (span_mean "server.tick" ~self:false);
  setd "engine.select_ms" (select_ms ());
  setd "core.install_ms" (span_mean "install" ~self:false);
  setd "core.initial_load_ms" (span_mean "initial_load" ~self:false);
  setd "core.refresh_ms" (span_mean "refresh" ~self:false);
  setd "core.consolidate_ms" (span_mean "cascade.consolidate" ~self:true);
  setd "core.fill_ms" (span_mean "propagate.fill" ~self:true);
  setd "core.combine_ms" (span_mean "propagate.combine" ~self:true);
  setd "core.prune_ms" (span_mean "propagate.prune" ~self:true);
  setd "core.cleanup_ms" (span_mean "propagate.cleanup" ~self:true);
  setd "core.consolidation_ratio" (consolidation_ratio ());
  setd "htap.ship_ms" (span_mean "bridge.ship" ~self:false);
  let rounds = float_of_int (max 1 ctx.rounds) in
  let traced_rounds = float_of_int (max 1 ctx.traced_rounds) in
  let folded = counter "openivm_delta_rows_folded_total" - folded0 in
  setd "core.delta_rows_folded" (float_of_int folded /. rounds);
  let rows op = float_of_int (Option.value ~default:0 (Hashtbl.find_opt ctx.read_rows op)) in
  setd "engine.scan_rows" (rows "scan" /. traced_rounds);
  setd "engine.index_scan_rows" (rows "index_scan" /. traced_rounds);
  setd "engine.join_rows" (rows "join" /. traced_rounds);
  setd "engine.aggregate_rows" (rows "aggregate" /. traced_rounds);
  let folded_in_reads = rows "_folded" in
  let all_rows =
    Hashtbl.fold (fun op c acc -> if op = "_folded" then acc else acc + c) ctx.read_rows 0
  in
  setd "engine.rows_per_delta_row"
    (if folded_in_reads = 0.0 then 0.0 else float_of_int all_rows /. folded_in_reads);
  let plain_ops = float_of_int (max 1 ctx.plain_ops) in
  setd "runtime.alloc_mb_per_op" (ctx.plain_alloc /. plain_ops /. 1e6);
  setd "runtime.major_gcs" (1000.0 *. float_of_int ctx.plain_majors /. plain_ops);
  setd "obs.trace_overhead_pct"
    (if ctx.plain_ops = 0 || ctx.traced_ops = 0 || ctx.plain_time = 0.0 then 0.0
     else
       100.0
       *. ((ctx.traced_time /. float_of_int ctx.traced_ops)
           /. (ctx.plain_time /. plain_ops) -. 1.0));
  List.map
    (fun (name, unit) ->
       (name, Option.value ~default:0.0 (Hashtbl.find_opt ctx.values name), unit))
    metrics
