(* End-to-end metrics: what a user of each deployment sees, measured
   with tracing off. *)

(* name, unit — the order of BENCHMARK.json's end_to_end list *)
let metrics =
  [ ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("write_p50_ms", "ms");
    ("write_p90_ms", "ms");
    ("read_p50_ms", "ms");
    ("read_p90_ms", "ms");
    ("refresh_p50_ms", "ms");
    ("refresh_p75_ms", "ms");
    ("delta_rows_per_s", "rows/s");
    ("rss_peak_mb", "MB") ]

(* What the measured phase records, one meter per load thread. *)
type meter = {
  ledger : Stats.ledger;
  writes : Stats.samples;     (** ms per write unit *)
  reads : Stats.samples;      (** ms per view read *)
  refreshes : Stats.samples;  (** ms to make one write batch visible *)
  ops : Stats.samples;        (** 1 per answered operation *)
  rows : Stats.samples;       (** base-table rows changed, per write *)
}

let meter () =
  { ledger = Stats.ledger (); writes = Stats.samples (); reads = Stats.samples ();
    refreshes = Stats.samples (); ops = Stats.samples (); rows = Stats.samples () }

let merge ms =
  let pick f = Stats.merge (List.map f ms) in
  let ledger = Stats.ledger () in
  List.iter
    (fun m ->
       ledger.Stats.attempted <- ledger.Stats.attempted + m.ledger.Stats.attempted;
       ledger.Stats.failed <- ledger.Stats.failed + m.ledger.Stats.failed;
       ledger.Stats.designed_errs <- ledger.Stats.designed_errs + m.ledger.Stats.designed_errs)
    ms;
  { ledger; writes = pick (fun m -> m.writes); reads = pick (fun m -> m.reads);
    refreshes = pick (fun m -> m.refreshes); ops = pick (fun m -> m.ops);
    rows = pick (fun m -> m.rows) }

(* Record one operation's reply against its expectation; an answered one
   counts toward ops_per_s. True when the reply was the designed one. *)
let record m expect reply =
  Stats.record m.ledger expect reply;
  let ok = not (Stats.is_failure expect reply) in
  if ok then Stats.add m.ops 1.0;
  ok

(* Record one write unit; a designed reply adds its latency and the rows
   it changed (0 for a designed rollback). *)
let write m expect reply ~ms =
  if record m expect reply then begin
    Stats.add m.writes ms;
    Stats.add m.rows (float_of_int (match reply with Stats.Ok_rows n -> n | _ -> 0))
  end

type t = {
  setups : float list;  (** seconds, one per set-up *)
  t0 : float;           (** start of the measured phase ([Stats.now]) *)
  wall : float;         (** seconds of the measured phase *)
  m : meter;
  rss_mb : float;       (** peak RSS of the process hosting the system *)
}

(* Every metric, or the names that could not be measured (a tail with
   fewer than ten samples beyond it, or an empty phase). Percentiles are
   the median over the phase's time slices when every slice can answer;
   a tail too thin for that (refresh_bulk's refresh p75) is taken over
   the whole phase. *)
let compute e =
  let pct s p =
    match Stats.windowed s ~t0:e.t0 ~wall:e.wall (fun part -> Stats.percentile part p) with
    | Some v -> Some v
    | None -> Stats.percentile s p
  in
  (* rates over the whole phase: refresh_bulk's rounds are too coarse
     for per-slice counts *)
  let rate s = if e.wall > 0.0 then Some (Stats.sum s /. e.wall) else None in
  let values =
    [ Some (Stats.median_of e.setups);
      rate e.m.ops;
      pct e.m.writes 0.5;
      pct e.m.writes 0.9;
      pct e.m.reads 0.5;
      pct e.m.reads 0.9;
      pct e.m.refreshes 0.5;
      pct e.m.refreshes 0.75;
      rate e.m.rows;
      Some e.rss_mb ]
  in
  let rows = List.combine metrics values in
  match
    List.filter_map
      (fun ((name, _), v) ->
         match v with
         | Some x when Float.is_finite x && x > 0.0 -> None
         | _ -> Some name)
      rows
  with
  | [] -> Ok (List.map (fun ((n, u), v) -> (n, Option.get v, u)) rows)
  | missing -> Error missing

(* Sample counts and host-noise evidence for the run record. *)
let record_json e ~cpu =
  let l = e.m.ledger in
  Json.Obj
    ([ ("wall_s", Json.Num e.wall);
       ("writes", Json.Int (Stats.count e.m.writes));
       ("reads", Json.Int (Stats.count e.m.reads));
       ("refreshes", Json.Int (Stats.count e.m.refreshes));
       ("attempted", Json.Int l.Stats.attempted);
       ("failed", Json.Int l.Stats.failed);
       ("designed_errors", Json.Int l.Stats.designed_errs);
       ("error_rate", Json.Num (Stats.error_rate l));
       ("ops_per_s_by_fifth",
        Json.List
          (Array.to_list
             (Array.map (fun r -> Json.Num r) (Stats.slice_rates e.m.ops ~t0:e.t0 ~wall:e.wall))))
     ]
     @ List.map (fun (k, v) -> (k, Json.Num v)) cpu)
