(** Cost-based combine-strategy selection — the paper's stated next step:
    "as we implement join operations, the search space should increase,
    and cost-based optimization should then make these choices".

    The model is deliberately coarse (row-count arithmetic, no constants
    calibrated per machine): it only needs to rank the three strategies,
    whose costs differ by orders of magnitude across the regime boundaries
    (see experiment E4a). Per refresh, with
      B = base rows, G = live groups, D = delta rows,
      g = distinct groups touched by the delta (≤ min (D, G)):

    - [Upsert_linear]      ≈ D (fill) + g (signed CTE + probe + upsert)
    - [Union_regroup]      ≈ D + 3·G (every group flows through the stage)
    - [Outer_join_merge]   ≈ D + 2·G + g (one pass over V, then the swap)
    - [Rederive_affected]  ≈ D + g·(B/G) (join the g affected keys into
                             the base through an index on the group
                             columns; a full scan of B when none covers
                             them)
    - [Full_recompute]     ≈ B (+ G to rewrite the view)

    MIN/MAX views cannot use [Upsert_linear]; everything else can. *)

open Openivm_engine

type estimate = {
  strategy : Flags.combine_strategy;
  cost : float;  (** estimated rows touched per refresh *)
}

type advice = {
  recommended : Flags.combine_strategy;
  estimates : estimate list;  (** all candidates, cheapest first *)
  base_rows : int;
  live_groups : int;
  touched_groups : float;
}

(** Estimated number of distinct groups hit by a delta of [d] rows over
    [g] groups (balls-into-bins expectation). *)
let expected_touched ~delta ~groups =
  if groups <= 0 then 0.0
  else
    let g = float_of_int groups and d = float_of_int delta in
    g *. (1.0 -. ((1.0 -. (1.0 /. g)) ** d))

let base_row_count (catalog : Catalog.t) (shape : Shape.t) : int =
  List.fold_left
    (fun acc (b : Shape.table_ref) ->
       acc + Table.row_count (Catalog.find_table catalog b.Shape.table))
    0
    (Shape.base_tables shape)

(** Live group count: the view table's row count when it exists already,
    else a default guess of sqrt(B). *)
let live_group_count (catalog : Catalog.t) (shape : Shape.t) ~base_rows : int =
  match Catalog.find_table_opt catalog shape.Shape.view_name with
  | Some tbl when Table.row_count tbl > 0 -> Table.row_count tbl
  | _ -> max 1 (int_of_float (sqrt (float_of_int (max 1 base_rows))))

(** True when a plain column of a base table is covered by the primary key
    or a single-column secondary index — point lookups on it avoid a table
    scan. Unknown tables/columns count as covered (reported elsewhere). *)
let column_indexed (catalog : Catalog.t) ~(table : string) ~(column : string) :
  bool =
  match Catalog.find_table_opt catalog table with
  | None -> true
  | Some tbl ->
    (match Schema.find_opt tbl.Table.schema ~qualifier:None ~name:column with
     | Some (i, _) ->
       (Array.length tbl.Table.primary_key = 1 && tbl.Table.primary_key.(0) = i)
       || List.exists
         (fun ix -> ix.Table.key_positions = [| i |])
         tbl.Table.secondary
     | None -> true
     | exception Error.Sql_error _ -> true)

(** True when the rederive's key-set join can probe an index instead of
    scanning the base: the question the index nested-loop join asks — is
    there a base table whose primary key or secondary index has exactly
    the group columns as its column set? *)
let rederive_indexed (catalog : Catalog.t) (shape : Shape.t) : bool =
  let keys = List.map fst (Shape.group_cols shape) in
  List.exists
    (fun (b : Shape.table_ref) ->
       match Catalog.find_table_opt catalog b.Shape.table with
       | None -> false
       | Some tbl ->
         Index_probe.for_columns ~exact:true tbl
           (Schema.requalify tbl.Table.schema b.Shape.binding)
           keys
         <> None)
    (Shape.base_tables shape)

let advise (catalog : Catalog.t) (shape : Shape.t) ~(expected_delta : int) :
  advice =
  let base_rows = base_row_count catalog shape in
  let live_groups = live_group_count catalog shape ~base_rows in
  let d = float_of_int (max 1 expected_delta) in
  let b = float_of_int (max 1 base_rows) in
  let g = float_of_int live_groups in
  let touched = expected_touched ~delta:expected_delta ~groups:live_groups in
  let linear_cost = d +. (3.0 *. touched) in
  let rows_per_group = b /. g in
  let rederive_read =
    if rederive_indexed catalog shape then touched *. rows_per_group
    else b  (* no index: the recompute scans the base *)
  in
  let rederive_cost = d +. touched +. rederive_read in
  let full_cost = b +. g in
  let regroup_cost = d +. (3.0 *. g) in
  let outer_merge_cost = d +. (2.0 *. g) +. touched in
  let candidates =
    (if Shape.has_min_max shape || Shape.is_global shape then []
     else
       [ { strategy = Flags.Upsert_linear; cost = linear_cost };
         { strategy = Flags.Union_regroup; cost = regroup_cost };
         { strategy = Flags.Outer_join_merge; cost = outer_merge_cost } ])
    @ (if Shape.is_global shape then []
       else [ { strategy = Flags.Rederive_affected; cost = rederive_cost } ])
    @ [ { strategy = Flags.Full_recompute; cost = full_cost } ]
  in
  let estimates =
    List.sort (fun a b -> compare a.cost b.cost) candidates
  in
  let recommended =
    match shape.Shape.klass with
    | _ when Shape.is_global shape && not (Shape.has_min_max shape) ->
      (* the stage-table combine is the linear path for globals *)
      Flags.Upsert_linear
    | _ -> (List.hd estimates).strategy
  in
  { recommended; estimates; base_rows; live_groups; touched_groups = touched }

(** Compile with the advisor's choice. *)
let compile_advised ?(flags = Flags.default) (catalog : Catalog.t)
    ~(expected_delta : int) (sql : string) : Compiler.t * advice =
  let tmp = Compiler.compile ~flags catalog sql in
  let advice = advise catalog tmp.Compiler.shape ~expected_delta in
  if advice.recommended = flags.Flags.strategy then (tmp, advice)
  else
    ( Compiler.compile ~flags:{ flags with strategy = advice.recommended }
        catalog sql,
      advice )
