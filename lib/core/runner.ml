(** The extension module: OpenIVM inside the engine (paper Figure 2).

    [install] executes the compiled DDL, performs the initial load, stores
    the propagation script (in the metadata tables and optionally on disk),
    and registers capture hooks on the base tables — the embedded
    equivalent of DuckDB's optimizer-rule DML interception. Under [Eager]
    refresh every base-table change propagates immediately; under [Lazy]
    (the demo's choice) deltas accumulate until the view is queried or
    [refresh] is called. *)

module Ast = Openivm_sql.Ast
open Openivm_engine

type view = {
  compiled : Compiler.t;
  db : Database.t;
  mutable pending_deltas : int;   (** delta rows captured since last refresh *)
  mutable refresh_count : int;
  mutable refresh_time : float;   (** total seconds spent propagating *)
  mutable capture_enabled : bool;
  mutable upstreams : view list;
      (** maintained views this view reads (cascade DAG parents) *)
  mutable downstreams : view list;
      (** maintained views reading this view (cascade DAG children) *)
  mutable in_refresh : bool;
      (** propagation in flight — re-entrant refreshes become no-ops and
          eager downstream refreshes wait for the post-refresh pass *)
}

let view_name v = v.compiled.Compiler.shape.Shape.view_name

(** 0 for views over base tables only; 1 + the deepest upstream level
    otherwise. Attached to refresh spans so profiles attribute time per
    DAG level. *)
let rec dag_level v =
  match v.upstreams with
  | [] -> 0
  | ups -> 1 + List.fold_left (fun acc u -> max acc (dag_level u)) 0 ups

let exec_stmts db stmts =
  List.iter (fun stmt -> ignore (Database.exec_stmt db stmt)) stmts

(* --- delta capture --- *)

(* [pending_deltas] is the one view field written from foreign domains:
   during a level-parallel tick, workers refreshing two upstreams of the
   same downstream view both capture into it (distinct delta tables, but
   one shared counter). One lock serializes every counter update; capture
   batches its whole change into a single locked add. *)
let pending_lock = Mutex.create ()

let add_pending v n =
  if n <> 0 then begin
    Mutex.lock pending_lock;
    v.pending_deltas <- v.pending_deltas + n;
    Mutex.unlock pending_lock
  end

let set_pending v n =
  Mutex.lock pending_lock;
  v.pending_deltas <- n;
  Mutex.unlock pending_lock

(** Append changed rows into delta_T with the boolean multiplicity. Runs
    with hooks disabled so IVM's own writes never re-trigger capture.
    When the base is itself a maintained view, its backing rows carry
    hidden IVM state after the visible prefix — the delta table is
    declared over the visible columns only, so project the row down to
    the delta table's width. *)
let capture v (base_table : string) (change : Trigger.change) =
  if v.capture_enabled then begin
    let delta_name = Compiler.delta_table v.compiled base_table in
    let delta = Catalog.find_table (Database.catalog v.db) delta_name in
    let width = Table.arity delta - 1 in
    let captured = ref 0 in
    Trigger.without_hooks (Database.triggers v.db) (fun () ->
        let emit mult row =
          let row =
            if Array.length row = width then row else Array.sub row 0 width
          in
          Table.insert delta (Array.append row [| Value.Bool mult |]);
          incr captured
        in
        List.iter (emit false) change.Trigger.deleted;
        List.iter (emit true) change.Trigger.inserted);
    add_pending v !captured
  end

(* --- refresh --- *)

module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics

let m_refresh_total strategy =
  Metrics.counter "openivm_refresh_total"
    ~help:"propagation-script runs per combine strategy"
    ~labels:[ ("strategy", strategy) ]

let m_refresh_seconds strategy =
  Metrics.histogram "openivm_refresh_seconds"
    ~help:"refresh latency per combine strategy"
    ~labels:[ ("strategy", strategy) ]

let m_delta_rows_folded =
  Metrics.counter "openivm_delta_rows_folded_total"
    ~help:"captured delta rows consumed by refreshes"

let m_consolidated_rows =
  Metrics.counter "openivm_consolidated_rows_total"
    ~help:"delta rows cancelled or merged by the Z-set consolidation pass"

(* --- Z-set delta consolidation --- *)

(** Coalesce each pending delta table to its net Z-set: sum the signed
    multiplicities per distinct row and rewrite the table as |weight|
    copies per surviving row. +/- pairs cancel outright, so a hot base
    table — or a swap-strategy upstream view that rewrote itself
    wholesale — feeds propagation a net delta instead of raw churn. *)
let consolidate_delta_table (delta : Table.t) : int =
  let before = Table.row_count delta in
  if before < 2 then 0
  else begin
    let width = Table.arity delta - 1 in
    let weights : int Row.Tbl.t = Row.Tbl.create 64 in
    let order = ref [] in
    Table.iter_rows
      (fun row ->
         let prefix = Array.sub row 0 width in
         let sign =
           match row.(width) with Value.Bool false -> -1 | _ -> 1
         in
         (match Row.Tbl.find_opt weights prefix with
          | Some w -> Row.Tbl.replace weights prefix (w + sign)
          | None ->
            Row.Tbl.add weights prefix sign;
            order := prefix :: !order))
      delta;
    let after =
      List.fold_left
        (fun acc prefix -> acc + abs (Row.Tbl.find weights prefix))
        0 !order
    in
    if after >= before then 0
    else begin
      ignore (Table.truncate delta);
      List.iter
        (fun prefix ->
           let w = Row.Tbl.find weights prefix in
           let row = Array.append prefix [| Value.Bool (w > 0) |] in
           for _ = 1 to abs w do Table.insert delta row done)
        (List.rev !order);
      before - after
    end
  end

let consolidate v =
  (* fewer than two pending rows can neither cancel nor merge; a Full
     plan never reads its deltas (cleanup just discards them), so
     consolidating first would be pure overhead *)
  if v.compiled.Compiler.flags.Flags.consolidate_deltas
     && v.pending_deltas > 1
     && v.compiled.Compiler.script.Propagate.kind <> Propagate.Full
  then
    Span.with_span "cascade.consolidate"
      ~attrs:[ ("view", Span.Str (view_name v)) ]
      (fun sp ->
         let catalog = Database.catalog v.db in
         let before = v.pending_deltas in
         let removed =
           Trigger.without_hooks (Database.triggers v.db) (fun () ->
               List.fold_left
                 (fun acc base ->
                    acc
                    + consolidate_delta_table
                        (Catalog.find_table catalog
                           (Compiler.delta_table v.compiled base)))
                 0
                 (Compiler.base_tables v.compiled))
         in
         if removed > 0 then begin
           add_pending v (-removed);
           Metrics.add m_consolidated_rows removed
         end;
         if sp != Span.none then begin
           Span.set_int sp "rows_before" before;
           Span.set_int sp "rows_after" v.pending_deltas
         end)

(** One propagation step (paper §2 steps 1–4) under its own span, with
    statement count and the engine's row counters attributed to it. *)
let run_step v name stmts =
  if stmts <> [] then
    Span.with_span ("propagate." ^ name) (fun sp ->
        let p = Database.profile v.db in
        let w0 = p.Database.rows_written and r0 = p.Database.rows_read in
        exec_stmts v.db stmts;
        if sp != Span.none then begin
          Span.set_int sp "statements" (List.length stmts);
          Span.set_int sp "rows_written" (p.Database.rows_written - w0);
          Span.set_int sp "rows_read" (p.Database.rows_read - r0)
        end)

module Clock = Openivm_obs.Clock
module Zset = Openivm_dbsp.Zset

(* --- domain-parallel delta propagation (Flags.domains > 1) --- *)

let m_parallel_shards =
  Metrics.counter "openivm_parallel_shards_total"
    ~help:"delta shards propagated on parallel refresh workers"

let m_parallel_merge_seconds =
  Metrics.histogram "openivm_parallel_merge_seconds"
    ~help:"time spent merging per-shard propagation results"

let shard_name table i = Printf.sprintf "%s__shard%d" table i

(** Effective fan-out for this view's refresh: its [domains] flag, except
    on a worker domain (a level-parallel tick refreshing this view), where
    nesting is suppressed. *)
let effective_domains v =
  let domains = v.compiled.Compiler.flags.Flags.domains in
  Parallel.width ~domains domains

(** Run deferred index maintenance on every table now, so the read
    snapshot workers are about to share is mutation-free: a PK lookup on
    a stale-indexed table rebuilds the index in place ({!Table.ensure_pk}),
    which two domains must never attempt concurrently. *)
let warm_all_indexes db =
  let catalog = Database.catalog db in
  List.iter
    (fun name -> Table.warm_indexes (Catalog.find_table catalog name))
    (Catalog.table_names catalog)

(** Hash-partition [src]'s rows into [parts] fresh shard tables
    ([<name>__shard<i>], same schema, no PK, catalog-registered so the
    planner can resolve them). [key_positions = None] hashes the whole
    row — valid for fill, which is linear in each delta; group-keyed
    partitioning ([Some ps]) colocates whole groups, which combine
    needs. *)
let build_shards catalog (src : Table.t) ~key_positions ~parts =
  let shards =
    Array.init parts (fun i ->
        let name = shard_name src.Table.name i in
        match Catalog.find_table_opt catalog name with
        | Some t -> ignore (Table.truncate t); t
        | None ->
          let t =
            Table.create ~name ~schema:src.Table.schema ~primary_key:[||]
          in
          Catalog.add_table catalog t;
          t)
  in
  Table.iter_rows
    (fun row ->
       let key =
         match key_positions with
         | None -> row
         | Some ps -> Array.map (fun p -> row.(p)) ps
       in
       let h = Row.hash key land max_int in
       Table.insert shards.(h mod parts) row)
    src;
  shards

let drop_shards catalog (shards : Table.t array) =
  Array.iter
    (fun (t : Table.t) -> Catalog.drop_table catalog t.Table.name ~if_exists:true)
    shards

(** A SELECT's result rows (multiplicity column last) as a Z-set. *)
let zset_of_mult_rows (rows : Row.t list) : Zset.t =
  let z = Zset.create ~size:(List.length rows + 1) () in
  List.iter
    (fun row ->
       let n = Array.length row - 1 in
       let sign = match row.(n) with Value.Bool false -> -1 | _ -> 1 in
       Zset.add z (Array.sub row 0 n) sign)
    rows;
  z

(** Back to delta-table encoding: |w| copies per row, mult = sign. *)
let mult_rows_of_zset (z : Zset.t) : Row.t list =
  Zset.fold
    (fun prefix w acc ->
       let row = Array.append prefix [| Value.Bool (w > 0) |] in
       let rec rep n acc = if n = 0 then acc else rep (n - 1) (row :: acc) in
       rep (abs w) acc)
    z []

(** Execute the SELECT of a rewritten propagation statement on [parts]
    worker domains (one shard each, renamed via [rename i]), then insert
    the merged result into [target] on the calling domain. [merge] folds
    the per-shard row lists into the rows to insert. *)
let scatter_gather v ~parts ~rename ~target ~merge =
  let catalog = Database.catalog v.db in
  let tasks =
    Array.init parts (fun i ->
        let qi = rename i in
        fun () ->
          Span.with_span "parallel.shard"
            ~attrs:[ ("view", Span.Str (view_name v)); ("shard", Span.Int i) ]
            (fun _ -> (Database.run_select v.db qi).Database.rows))
  in
  let results = Parallel.map tasks in
  Metrics.add m_parallel_shards parts;
  let t0 = Clock.now () in
  let target_tbl = Catalog.find_table catalog target in
  let rows =
    List.map
      (Dml.coerce_to_schema target_tbl.Table.schema)
      (merge results)
  in
  Table.insert_many target_tbl rows;
  Metrics.observe m_parallel_merge_seconds (Clock.now () -. t0);
  let p = Database.profile v.db in
  p.Database.rows_written <- p.Database.rows_written + List.length rows

(** Fill statements whose FROM references an empty delta table are dead:
    every fill term is linear in each delta it reads, so one empty input
    nullifies the term. Pruning them is an optimization in sequential
    mode and load-balancing in parallel mode. *)
let live_fill_stmts v =
  let catalog = Database.catalog v.db in
  let fill = v.compiled.Compiler.script.Propagate.fill in
  let empty_deltas =
    List.filter_map
      (fun base ->
         let name = Compiler.delta_table v.compiled base in
         match Catalog.find_table_opt catalog name with
         | Some t when Table.row_count t = 0 -> Some name
         | _ -> None)
      (Compiler.base_tables v.compiled)
  in
  if empty_deltas = [] then fill
  else
    List.filter
      (fun stmt ->
         match Propagate.insert_select_parts stmt with
         | None -> true
         | Some (_, q) ->
           not
             (List.exists
                (fun t -> List.mem t empty_deltas)
                (Ast.select_tables q)))
      fill

(** Step 1 in parallel: shard the largest pending delta table [parts]
    ways by whole-row hash; every fill term that reads it runs once per
    shard (read-only SELECT on a worker domain) against the shard plus
    the unsharded remainder of the snapshot. Correct by linearity of the
    fill in each delta: the signed union of per-shard term outputs equals
    the term over the whole delta, and delta_V's consumers re-aggregate
    per group, so splitting a group's partial states across shard outputs
    is immaterial. The merged Z-set nets exact +/- duplicates across
    shards — a consolidation sequential fill leaves to combine.

    Returns the number of statements sharded (0 = nothing was worth
    parallelizing; the caller already ran nothing — statements not
    referencing the sharded delta run sequentially here either way). *)
let fill_parallel v ~parts (stmts : Ast.stmt list) : int =
  let catalog = Database.catalog v.db in
  let deltas =
    List.filter_map
      (fun base ->
         let t =
           Catalog.find_table catalog (Compiler.delta_table v.compiled base)
         in
         if Table.row_count t > 0 then Some t else None)
      (Compiler.base_tables v.compiled)
  in
  let by_size =
    List.sort (fun a b -> compare (Table.row_count b) (Table.row_count a)) deltas
  in
  match by_size with
  | big :: _ when Table.row_count big >= parts ->
    warm_all_indexes v.db;
    let shards = build_shards catalog big ~key_positions:None ~parts in
    Fun.protect ~finally:(fun () -> drop_shards catalog shards)
      (fun () ->
         List.fold_left
           (fun sharded stmt ->
              match Propagate.insert_select_parts stmt with
              | Some (target, q)
                when List.mem big.Table.name (Ast.select_tables q) ->
                scatter_gather v ~parts ~target
                  ~rename:(fun i ->
                    Ast.rename_tables
                      (fun t ->
                         if String.equal t big.Table.name then
                           shard_name big.Table.name i
                         else t)
                      q)
                  ~merge:(fun results ->
                    mult_rows_of_zset
                      (Zset.merge (Array.map zset_of_mult_rows results)));
                sharded + 1
              | _ ->
                exec_stmts v.db [ stmt ];
                sharded)
           0 stmts)
  | _ ->
    exec_stmts v.db stmts;
    0

(** Step 2 in parallel, for the swap strategies over a grouped view:
    partition both combine inputs — the view's backing table and delta_V
    — by group-key hash, run the stage-filling SELECT per shard on worker
    domains, and concatenate into the stage table. Group-keyed
    partitioning makes each shard's groups complete and pairwise disjoint
    across shards, so per-shard regrouping (HAVING and AVG included) and
    per-shard full-outer-joins compose exactly. The swap tail (delete
    view; insert from stage; drop stage) stays sequential — those writes
    feed downstream capture. Returns true when handled; false = caller
    runs the whole combine sequentially. *)
let combine_parallel v ~parts : bool =
  let shape = v.compiled.Compiler.shape in
  let script = v.compiled.Compiler.script in
  let stage = Shape.stage_table shape in
  let viewname = shape.Shape.view_name in
  let dv = Compiler.delta_view v.compiled in
  let group_names = List.map snd (Shape.group_cols shape) in
  match script.Propagate.kind, script.Propagate.combine, group_names with
  | (Propagate.Regroup | Propagate.Outer_merge), first :: rest, _ :: _ ->
    (match Propagate.insert_select_parts first with
     | Some (target, q) when String.equal target stage ->
       let catalog = Database.catalog v.db in
       let vt = Catalog.find_table catalog viewname in
       let dt = Catalog.find_table catalog dv in
       let key_positions (tbl : Table.t) =
         Array.of_list
           (List.map
              (fun n ->
                 fst (Schema.find tbl.Table.schema ~qualifier:None ~name:n))
              group_names)
       in
       (match key_positions vt, key_positions dt with
        | exception _ -> false
        | vk, dk ->
          if Table.row_count vt + Table.row_count dt < parts then false
          else begin
            warm_all_indexes v.db;
            let vshards =
              build_shards catalog vt ~key_positions:(Some vk) ~parts
            in
            let dshards =
              build_shards catalog dt ~key_positions:(Some dk) ~parts
            in
            Fun.protect
              ~finally:(fun () ->
                drop_shards catalog vshards;
                drop_shards catalog dshards)
              (fun () ->
                 scatter_gather v ~parts ~target:stage
                   ~rename:(fun i ->
                     Ast.rename_tables
                       (fun t ->
                          if String.equal t viewname then shard_name viewname i
                          else if String.equal t dv then shard_name dv i
                          else t)
                       q)
                   ~merge:(fun results ->
                     Array.fold_left
                       (fun acc rs -> List.rev_append rs acc)
                       [] results));
            exec_stmts v.db rest;
            true
          end)
     | _ -> false)
  | _ -> false

(** Run [f] with the database's executor switched to this set of flags'
    engine, restoring the previous engine afterwards — a database can host
    views configured for different engines (the fuzz oracle runs the same
    workload under both).

    The same scope marks compiler-generated SQL: its bulk INSERT ... SELECT
    statements into empty keyed tables are GROUP BY outputs (or copies of
    one, via a stage table) keyed by the group columns, so the PK-duplicate
    check in {!Table.insert_many} is provably redundant and skipped. *)
let with_exec_engine db (flags : Flags.t) f =
  let saved = db.Database.exec_engine in
  let saved_hint = db.Database.bulk_distinct_hint in
  db.Database.exec_engine <- flags.Flags.exec_engine;
  db.Database.bulk_distinct_hint <- true;
  Fun.protect
    ~finally:(fun () ->
      db.Database.exec_engine <- saved;
      db.Database.bulk_distinct_hint <- saved_hint)
    f

(** Propagate this view's pending deltas, cascade-aware:

    - upstream maintained views refresh first (topological pull), so the
      fill step joins against current upstream contents;
    - the steps run with trigger hooks {e enabled} — unlike a leaf
      refresh of old, the writes to V's backing table are exactly ΔV, and
      downstream views capture them like any base-table delta (the DBSP
      composition point);
    - a Z-set consolidation pass first cancels +/- pairs and merges
      duplicate delta rows ({!Flags.consolidate_deltas});
    - eager downstream views refresh in a post-pass once this refresh is
      complete (never mid-flight — [in_refresh] gates re-entrancy).

    Capture never re-triggers itself: no hooks are registered on delta,
    stage or metadata tables, and {!capture}'s own inserts run under
    [without_hooks].

    [~standalone:false] is the level-parallel tick's entry: the caller
    has already pinned the executor engine for the whole level (so the
    per-view engine swap is skipped — it would race across workers) and
    refreshes every view in DAG-level order itself (so the eager
    downstream post-pass is skipped — the tick reaches those views at
    their own level). *)
let rec force_refresh_local ?(standalone = true) v =
  let t0 = Clock.now () in
  let script = v.compiled.Compiler.script in
  let strategy =
    Flags.strategy_to_string v.compiled.Compiler.flags.Flags.strategy
  in
  Span.with_span "refresh"
    ~attrs:
      [ ("view", Span.Str (view_name v));
        ("strategy", Span.Str strategy);
        ("plan", Span.Str (Propagate.kind_to_string script.Propagate.kind));
        ("pending_deltas", Span.Int v.pending_deltas);
        ("dag_level", Span.Int (dag_level v)) ]
    (fun _ ->
       v.in_refresh <- true;
       Fun.protect
         ~finally:(fun () -> v.in_refresh <- false)
         (fun () ->
            (if standalone then with_exec_engine v.db v.compiled.Compiler.flags
             else fun f -> f ())
            @@ fun () ->
            consolidate v;
            let parts = effective_domains v in
            (* fill: prune dead terms, then shard the dominant delta *)
            (let stmts = live_fill_stmts v in
             if stmts <> [] then
               Span.with_span "propagate.fill" (fun sp ->
                   let p = Database.profile v.db in
                   let w0 = p.Database.rows_written
                   and r0 = p.Database.rows_read in
                   let sharded =
                     if parts > 1 then fill_parallel v ~parts stmts
                     else begin exec_stmts v.db stmts; 0 end
                   in
                   if sp != Span.none then begin
                     Span.set_int sp "statements" (List.length stmts);
                     Span.set_int sp "sharded_statements" sharded;
                     Span.set_int sp "rows_written"
                       (p.Database.rows_written - w0);
                     Span.set_int sp "rows_read" (p.Database.rows_read - r0)
                   end));
            (* combine: group-partitioned stage fill for swap strategies *)
            (let stmts = script.Propagate.combine in
             if stmts <> [] then
               Span.with_span "propagate.combine" (fun sp ->
                   let p = Database.profile v.db in
                   let w0 = p.Database.rows_written
                   and r0 = p.Database.rows_read in
                   let parallel =
                     parts > 1 && combine_parallel v ~parts
                   in
                   if not parallel then exec_stmts v.db stmts;
                   if sp != Span.none then begin
                     Span.set_int sp "statements" (List.length stmts);
                     Span.set_int sp "parallel" (if parallel then parts else 1);
                     Span.set_int sp "rows_written"
                       (p.Database.rows_written - w0);
                     Span.set_int sp "rows_read" (p.Database.rows_read - r0)
                   end));
            run_step v "prune" script.Propagate.prune;
            run_step v "cleanup" script.Propagate.cleanup;
            Metrics.incr (m_refresh_total strategy);
            Metrics.add m_delta_rows_folded v.pending_deltas;
            set_pending v 0;
            v.refresh_count <- v.refresh_count + 1;
            let dt = Clock.now () -. t0 in
            Metrics.observe (m_refresh_seconds strategy) dt;
            v.refresh_time <- v.refresh_time +. dt;
            (* the steps above fed ΔV to downstream delta tables; fold it
               into eager dependents now that V is consistent (we stay
               marked in_refresh so their upstream pull skips us) *)
            if standalone then
              match v.downstreams with
              | [] -> ()
              | ds ->
                Span.with_span "cascade.downstream"
                  ~attrs:[ ("view", Span.Str (view_name v)) ]
                  (fun _ ->
                     List.iter
                       (fun d ->
                          if d.compiled.Compiler.flags.Flags.refresh
                             = Flags.Eager
                          then refresh d)
                       ds)))

and refresh_upstreams v =
  match v.upstreams with
  | [] -> ()
  | ups ->
    Span.with_span "cascade.upstream"
      ~attrs:[ ("view", Span.Str (view_name v)) ]
      (fun _ -> List.iter refresh ups)

and refresh v =
  if not v.in_refresh then begin
    refresh_upstreams v;
    if v.pending_deltas > 0
       || v.compiled.Compiler.script.Propagate.kind = Propagate.Full
    then force_refresh_local v
  end

let force_refresh v =
  if not v.in_refresh then begin
    refresh_upstreams v;
    force_refresh_local v
  end

(** Deferred eager refresh: runs after the outermost trigger dispatch so
    a view over both a base table and an upstream view sees all of a
    statement's deltas at once. Skipped while an upstream is mid-refresh
    — that upstream's post-pass picks us up. *)
let eager_refresh v =
  if not (List.exists (fun u -> u.in_refresh) v.upstreams) then refresh v

(** Rebuild the view from the base tables as they stand now: discard all
    pending deltas, truncate the view's backing table, and rerun the
    initial load. The recovery path of last resort — equivalent to
    dropping and re-creating the view, but keeping triggers, metadata and
    compiled scripts in place. *)
let rec reinitialize v =
  let catalog = Database.catalog v.db in
  with_exec_engine v.db v.compiled.Compiler.flags @@ fun () ->
  Trigger.without_hooks (Database.triggers v.db) (fun () ->
      ignore (Table.truncate (Catalog.find_table catalog (view_name v)));
      List.iter
        (fun base ->
           ignore
             (Table.truncate
                (Catalog.find_table catalog
                   (Compiler.delta_table v.compiled base))))
        (Compiler.base_tables v.compiled);
      exec_stmts v.db [ v.compiled.Compiler.initial_load ]);
  v.pending_deltas <- 0;
  (* the rebuild ran hook-free, so dependents saw none of it: rebuild
     them too, in DAG order (each reads its freshly rebuilt upstream) *)
  List.iter reinitialize v.downstreams

(** Query the view, honoring the refresh mode (lazy refresh-on-read).
    A view with upstreams always pulls first: an eager view over a lazy
    upstream would otherwise never observe the upstream's pending
    deltas. *)
let query v (sql : string) : Database.query_result =
  (match v.compiled.Compiler.flags.Flags.refresh with
   | Flags.Lazy -> refresh v
   | Flags.Eager -> if v.upstreams <> [] then refresh v);
  Database.query v.db sql

let contents ?(order_by = "") v : Database.query_result =
  let suffix = if order_by = "" then "" else " ORDER BY " ^ order_by in
  query v (Printf.sprintf "SELECT * FROM %s%s" (view_name v) suffix)

(* --- the differential-testing hooks --- *)

(** The view's visible contents as sorted row strings. Hidden bookkeeping
    columns are stripped; flat (non-aggregate) views materialize in
    weighted form, so their rows are expanded by the hidden row count to
    recover bag semantics. The oracle's left-hand side. *)
let visible_rows (v : view) : string list =
  let shape = v.compiled.Compiler.shape in
  let visible = Shape.visible_names shape in
  let flat = not (Shape.has_aggregates shape) in
  let cols = if flat then visible @ [ Shape.count_column ] else visible in
  let r =
    query v
      (Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols)
         (view_name v))
  in
  let rows =
    if flat then
      List.concat_map
        (fun (row : Row.t) ->
           let n = Array.length row - 1 in
           let weight = match row.(n) with Value.Int w -> w | _ -> 1 in
           let visible_part = Array.sub row 0 n in
           List.init (max 0 weight) (fun _ -> Row.to_string visible_part))
        r.Database.rows
    else List.map Row.to_string r.Database.rows
  in
  List.sort String.compare rows

(** Full recomputation of the defining query against the base tables as
    they stand now, as sorted row strings — the oracle's right-hand side.
    [visible_rows v = recompute_rows v] is the IVM correctness invariant
    (paper §2, DBSP Z-set semantics). *)
let recompute_rows (v : view) : string list =
  let q = v.compiled.Compiler.shape.Shape.query in
  let sql = Openivm_sql.Pretty.select_to_sql Openivm_sql.Dialect.minidb q in
  List.sort String.compare
    (List.map Row.to_string (Database.query v.db sql).Database.rows)

(* --- installation --- *)

let store_scripts_on_disk (compiled : Compiler.t) =
  match compiled.Compiler.flags.Flags.script_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Filename.concat dir (compiled.Compiler.shape.Shape.view_name ^ ".sql")
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Compiler.full_sql compiled))

(** Installation modes for the durable store:
    - [`Immediate] (default) — DDL, metadata, initial load: the historical
      single-shot install.
    - [`Deferred] — DDL and metadata, but no initial load: the staged
      backfill fills the view chunk by chunk afterwards
      ({!backfill_chunk}).
    - [`Attach] — neither DDL nor load: the backing, delta and metadata
      tables already exist (a checkpoint-restored database); just compile,
      register and re-arm capture. *)
let install ?(flags = Flags.default) ?(registry = [])
    ?(load = `Immediate) (db : Database.t) (sql : string) : view =
  let compiled =
    Span.with_span "install" (fun sp ->
        let compiled =
          Span.with_span "compile" (fun _ ->
              Compiler.compile ~flags (Database.catalog db) sql)
        in
        Span.set_str sp "view" compiled.Compiler.shape.Shape.view_name;
        (match load with
         | `Attach ->
           (* tables were restored from the checkpoint; metadata DDL is
              IF NOT EXISTS and so safe (and needed when attaching to a
              database snapshotted before a metadata table existed) *)
           exec_stmts db compiled.Compiler.metadata_ddl
         | `Immediate | `Deferred ->
           Span.with_span "setup_ddl" (fun _ ->
               exec_stmts db compiled.Compiler.ddl;
               exec_stmts db compiled.Compiler.metadata_ddl;
               exec_stmts db compiled.Compiler.metadata_dml));
        (match load with
         | `Immediate ->
           (* initial load must not be captured as a delta *)
           Span.with_span "initial_load" (fun _ ->
               with_exec_engine db flags (fun () ->
                   Trigger.without_hooks (Database.triggers db) (fun () ->
                       exec_stmts db [ compiled.Compiler.initial_load ])))
         | `Deferred | `Attach -> ());
        compiled)
  in
  store_scripts_on_disk compiled;
  let shape = compiled.Compiler.shape in
  Catalog.register_mat_view (Database.catalog db)
    { Catalog.mat_name = shape.Shape.view_name;
      mat_visible = Shape.visible_names shape;
      mat_flat = not (Shape.has_aggregates shape);
      mat_depends_on = Compiler.base_tables compiled };
  let v =
    { compiled; db; pending_deltas = 0; refresh_count = 0;
      refresh_time = 0.0; capture_enabled = true;
      upstreams = []; downstreams = []; in_refresh = false }
  in
  (* wire the cascade DAG: sources that are maintained views become
     upstream/downstream links when the caller hands us their handles *)
  let ups =
    List.filter_map
      (fun name ->
         List.find_opt (fun u -> String.equal (view_name u) name) registry)
      (Compiler.upstream_views compiled)
  in
  v.upstreams <- ups;
  List.iter (fun u -> u.downstreams <- u.downstreams @ [ v ]) ups;
  List.iter
    (fun base ->
       Trigger.register (Database.triggers db) ~table:base
         ~name:(Printf.sprintf "openivm_%s_%s" (view_name v) base)
         (fun change ->
            capture v base change;
            match compiled.Compiler.flags.Flags.refresh with
            | Flags.Eager ->
              Trigger.defer (Database.triggers db) (fun () -> eager_refresh v)
            | Flags.Lazy -> ()))
    (Compiler.base_tables compiled);
  v

(* --- staged backfill (the durable store's resumable initial load) --- *)

let m_backfill_chunks =
  Metrics.counter "openivm_backfill_chunks_total"
    ~help:"backfill chunks applied (staged initial materialization)"

(** Only a plain single-base-table source can be backfilled in chunks:
    slices of the base table flow through the delta pipeline exactly like
    captured changes, and linear/swap/rederive strategies all converge on
    partial inputs. Joins need both sides at once, and view-over-view
    sources must read a complete upstream — those load in one piece. *)
let backfill_chunkable v =
  match v.compiled.Compiler.shape.Shape.source with
  | Shape.Single { Shape.from_view = false; _ } -> true
  | Shape.Single _ | Shape.Joined _ -> false

(** Number of chunks a [`Deferred] install of [v] needs at [chunk_rows]
    rows per chunk (always 1 for non-chunkable shapes). *)
let backfill_total_chunks v ~chunk_rows =
  if not (backfill_chunkable v) then 1
  else begin
    let base = List.hd (Compiler.base_tables v.compiled) in
    let rows =
      Table.row_count (Catalog.find_table (Database.catalog v.db) base)
    in
    max 1 ((rows + chunk_rows - 1) / chunk_rows)
  end

(** Apply backfill chunk [index] (0-based) of a [`Deferred] install:
    insert the chunk's slice of the base table into the delta table with
    positive multiplicity and propagate. Chunk order and boundaries are
    deterministic for a fixed base table (slot order), so replaying the
    same chunk indexes over the same base state is idempotent-by-
    construction: recovery re-derives the identical slices. Returns the
    number of base rows folded in. *)
let backfill_chunk v ~chunk_rows ~index =
  Span.with_span "backfill.chunk"
    ~attrs:
      [ ("view", Span.Str (view_name v)); ("chunk", Span.Int index) ]
    (fun _ ->
       Metrics.incr m_backfill_chunks;
       if not (backfill_chunkable v) then begin
         (* single whole-shot chunk: the ordinary initial load *)
         with_exec_engine v.db v.compiled.Compiler.flags (fun () ->
             Trigger.without_hooks (Database.triggers v.db) (fun () ->
                 exec_stmts v.db [ v.compiled.Compiler.initial_load ]));
         0
       end
       else begin
         let catalog = Database.catalog v.db in
         let base = List.hd (Compiler.base_tables v.compiled) in
         let base_tbl = Catalog.find_table catalog base in
         let delta =
           Catalog.find_table catalog (Compiler.delta_table v.compiled base)
         in
         let width = Table.arity delta - 1 in
         let rows = Table.to_rows base_tbl in
         let lo = index * chunk_rows in
         let chunk =
           List.filteri (fun i _ -> i >= lo && i < lo + chunk_rows) rows
         in
         Trigger.without_hooks (Database.triggers v.db) (fun () ->
             List.iter
               (fun row ->
                  let row =
                    if Array.length row = width then row
                    else Array.sub row 0 width
                  in
                  Table.insert delta (Array.append row [| Value.Bool true |]))
               chunk);
         add_pending v (List.length chunk);
         force_refresh_local v;
         List.length chunk
       end)

let uninstall v =
  let db = v.db in
  let catalog = Database.catalog db in
  (match Catalog.mat_dependents catalog (view_name v) with
   | [] -> ()
   | dependents ->
     let d =
       Openivm_sql.Diagnostic.cascade_dependents ~view:(view_name v)
         ~dependents ()
     in
     Error.fail "%s: %s" d.Openivm_sql.Diagnostic.code
       d.Openivm_sql.Diagnostic.message);
  v.capture_enabled <- false;
  List.iter
    (fun u ->
       u.downstreams <- List.filter (fun d -> not (d == v)) u.downstreams)
    v.upstreams;
  v.upstreams <- [];
  Catalog.unregister_mat_view catalog (view_name v);
  List.iter
    (fun base ->
       Trigger.unregister (Database.triggers db)
         ~name:(Printf.sprintf "openivm_%s_%s" (view_name v) base))
    (Compiler.base_tables v.compiled);
  exec_stmts db (Metadata.unregister (view_name v));
  let drop name =
    ignore
      (Database.exec_stmt db
         (Ast.Drop { kind = `Table; name; if_exists = true }))
  in
  drop (view_name v);
  drop (Compiler.delta_view v.compiled);
  List.iter
    (fun b -> drop (Compiler.delta_table v.compiled b))
    (Compiler.base_tables v.compiled)

(* --- the extension entry point --- *)

(** The loaded extension: a database plus the registry of views it
    maintains (paper Figure 2). *)
type extension = {
  ext_db : Database.t;
  ext_flags : Flags.t;
  mutable ext_views : view list;
}

let load ?(flags = Flags.default) (db : Database.t) : extension =
  { ext_db = db; ext_flags = flags; ext_views = [] }

let find_view ext name =
  List.find_opt (fun v -> String.equal (view_name v) name) ext.ext_views

(** Tick-batched refresh: fold every maintained view's pending deltas in
    one pass, upstreams before downstreams so each propagation runs at
    most once per tick — the serving layer's refresh entry point.

    With [ext_flags.domains > 1] and the tick covering every view (the
    default [only]), views sharing a [dag_level] are independent — no
    cascade edge connects them — and refresh concurrently, one worker
    domain each, with a barrier between levels. Level order makes the
    per-view upstream pull redundant (each level sees every lower level
    already folded), so workers call straight into the local propagation;
    the executor engine is pinned once per level, which requires the
    level's firing views to agree on it (mixed-engine levels fall back to
    sequential). A filtered [only] also falls back: skipping a view under
    the parallel regime would break the level-order invariant its
    downstreams rely on. *)
let refresh_tick ?(only = fun _ -> true) (ext : extension) : int =
  let views =
    List.stable_sort
      (fun a b -> compare (dag_level a) (dag_level b))
      ext.ext_views
  in
  let sequential () =
    List.fold_left
      (fun ran v ->
         if only v then begin
           let before = v.refresh_count in
           refresh v;
           if v.refresh_count > before then ran + 1 else ran
         end
         else ran)
      0 views
  in
  if ext.ext_flags.Flags.domains <= 1
     || Parallel.in_worker ()
     || not (List.for_all only views)
  then sequential ()
  else begin
    let rec levels = function
      | [] -> []
      | v :: _ as vs ->
        let l = dag_level v in
        let same, rest = List.partition (fun w -> dag_level w = l) vs in
        same :: levels rest
    in
    List.fold_left
      (fun ran level_views ->
         (* deltas may have arrived while lower levels refreshed, so the
            firing set is decided per level, not up front *)
         let fire =
           List.filter
             (fun v ->
                v.pending_deltas > 0
                || v.compiled.Compiler.script.Propagate.kind = Propagate.Full)
             level_views
         in
         let engines =
           List.sort_uniq compare
             (List.map
                (fun v -> v.compiled.Compiler.flags.Flags.exec_engine)
                fire)
         in
         match fire, engines with
         | [], _ -> ran
         | _, [ engine ] ->
           if List.length fire > 1 then warm_all_indexes ext.ext_db;
           let db = ext.ext_db in
           let saved = db.Database.exec_engine in
           let saved_hint = db.Database.bulk_distinct_hint in
           db.Database.exec_engine <- engine;
           db.Database.bulk_distinct_hint <- true;
           Fun.protect
             ~finally:(fun () ->
               db.Database.exec_engine <- saved;
               db.Database.bulk_distinct_hint <- saved_hint)
             (fun () ->
                ignore
                  (Parallel.map
                     (Array.of_list
                        (List.map
                           (fun v () -> force_refresh_local ~standalone:false v)
                           fire))));
           ran + List.length fire
         | _, _ ->
           (* mixed executor engines on one level: refresh in order *)
           List.iter (fun v -> force_refresh_local v) fire;
           ran + List.length fire)
      0 (levels views)
  end

(** Refresh every lazily-maintained view a query touches — the engine-side
    counterpart of the paper's "implicitly calling a table function,
    adding a dummy node to the plan of the original query". *)
let refresh_for_query ext (q : Ast.select) =
  let touched = Ast.select_tables q in
  List.iter
    (fun v ->
       if (v.compiled.Compiler.flags.Flags.refresh = Flags.Lazy
           || v.upstreams <> [])
          && List.mem (view_name v) touched
       then refresh v)
    ext.ext_views

(** Execute a statement with the OpenIVM extension active: the fall-back
    parser path of the paper — [CREATE MATERIALIZED VIEW] is intercepted
    and compiled; SELECTs over maintained views refresh them first;
    everything else goes to the engine untouched. *)
let exec_parsed (ext : extension) ~(sql : string) (stmt : Ast.stmt) :
  [ `Result of Database.exec_result | `Installed of view ] =
  match stmt with
  | Ast.Create_view { materialized = true; _ } ->
    let v = install ~flags:ext.ext_flags ~registry:ext.ext_views ext.ext_db sql in
    ext.ext_views <- v :: ext.ext_views;
    `Installed v
  | Ast.Select_stmt q as stmt ->
    refresh_for_query ext q;
    `Result (Database.exec_stmt ext.ext_db stmt)
  | Ast.Drop { kind = `Table; name; _ } when find_view ext name <> None ->
    (match find_view ext name with
     | Some v ->
       uninstall v;
       ext.ext_views <-
         List.filter (fun w -> not (String.equal (view_name w) name)) ext.ext_views;
       `Result (Database.Ok_msg (Printf.sprintf "dropped materialized view %s" name))
     | None -> assert false)
  | Ast.Insert { table; _ } | Ast.Update { table; _ } | Ast.Delete { table; _ }
  | Ast.Truncate table
    when find_view ext table <> None ->
    (* direct DML against a maintained backing table would desynchronize
       the view (and silently corrupt everything downstream of it) *)
    let d = Openivm_sql.Diagnostic.cascade_dml_on_view ~view:table () in
    Error.fail "%s: %s" d.Openivm_sql.Diagnostic.code
      d.Openivm_sql.Diagnostic.message
  | stmt -> `Result (Database.exec_stmt ext.ext_db stmt)

let exec_ext (ext : extension) (sql : string) =
  exec_parsed ext ~sql (Openivm_sql.Parser.parse_statement sql)

(** One-shot variant when no extension state is at hand. *)
let exec ?(flags = Flags.default) (db : Database.t) (sql : string) :
  [ `Result of Database.exec_result | `Installed of view ] =
  match Openivm_sql.Parser.parse_statement sql with
  | Ast.Create_view { materialized = true; _ } ->
    `Installed (install ~flags db sql)
  | stmt -> `Result (Database.exec_stmt db stmt)
