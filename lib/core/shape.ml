(** Normalized description of an IVM-maintainable view definition.

    [analyze] validates a view query against the supported classes
    (single-table projection / filter / grouped aggregation, and their
    two-table-join counterparts — the paper's scope plus its announced
    MIN/MAX and JOIN extensions) and lowers it into the shape the DDL and
    propagation generators consume. Every rejection is a coded
    {!Openivm_sql.Diagnostic.t}; when the caller passes the parser's
    [spans], the diagnostic points at the offending SQL. *)

module Ast = Openivm_sql.Ast
module Analysis = Openivm_sql.Analysis
module Diagnostic = Openivm_sql.Diagnostic
module Parser = Openivm_sql.Parser
open Openivm_engine

type aggregate_item = {
  agg : Ast.agg;
  arg : Ast.expr option;       (** None = COUNT star *)
  visible_name : string;       (** the view's output column *)
  visible_type : Ast.typ;
  sum_state : string option;   (** hidden running-sum column (SUM/AVG) *)
  nn_state : string option;    (** hidden non-null-count column (SUM/AVG) *)
}

type column_spec =
  | Group_col of { expr : Ast.expr; name : string; typ : Ast.typ }
  | Agg_col of aggregate_item

type table_ref = {
  table : string;
  binding : string;  (** alias used in the view query ("t" if none) *)
  schema : Schema.t;
  from_view : bool;
      (** the source is itself a maintained materialized view; [schema]
          is then restricted to its visible column prefix, hiding the IVM
          bookkeeping columns from the downstream definition *)
}

type source =
  | Single of table_ref
  | Joined of {
      tables : table_ref list;     (** two or more, in FROM order *)
      condition : Ast.expr option; (** all ON conditions, conjoined *)
    }

type t = {
  view_name : string;
  query : Ast.select;
  klass : Analysis.query_class;
  columns : column_spec list;  (** in projection order *)
  source : source;
  where : Ast.expr option;
}

let count_column = "__ivm_count"
let stage_table shape = "__ivm_stage_" ^ shape.view_name

(* the DBSP inclusion–exclusion rewrite emits 2^N - 1 fill terms; cap N
   so a typo cannot explode the script *)
let max_join_tables = Analysis.max_join_tables

let group_cols shape =
  List.filter_map
    (function
      | Group_col g -> Some (g.expr, g.name)
      | Agg_col _ -> None)
    shape.columns

let aggregates shape =
  List.filter_map
    (function Agg_col a -> Some a | Group_col _ -> None)
    shape.columns

let has_aggregates shape = aggregates shape <> []

let has_min_max shape =
  List.exists
    (fun a -> a.agg = Ast.Min || a.agg = Ast.Max)
    (aggregates shape)

(** Global aggregate: SELECT SUM(x) FROM t — aggregates without grouping. *)
let is_global shape = has_aggregates shape && group_cols shape = []

let visible_names shape =
  List.map
    (function Group_col g -> g.name | Agg_col a -> a.visible_name)
    shape.columns

let base_tables shape =
  match shape.source with
  | Single t -> [ t ]
  | Joined { tables; _ } -> tables

(* --- analysis --- *)

let table_ref_of catalog name alias : table_ref =
  let tbl = Catalog.find_table catalog name in
  (* A maintained view's backing table lays out its visible columns
     first, then hidden IVM state; downstream views see only the visible
     prefix — the DBSP composition point where ΔV feeds the next view. *)
  let schema, from_view =
    match Catalog.find_mat_view catalog name with
    | Some mv ->
      ( List.filter
          (fun (c : Schema.column) ->
             List.exists (String.equal c.Schema.name) mv.Catalog.mat_visible)
          tbl.Table.schema,
        true )
    | None -> (tbl.Table.schema, false)
  in
  { table = name;
    binding = Option.value alias ~default:name;
    schema = Schema.requalify schema (Option.value alias ~default:name);
    from_view }

(** First derived table under a FROM clause, for span attachment. *)
let rec find_derived = function
  | Ast.Table_ref _ -> None
  | Ast.Subquery _ as f -> Some f
  | Ast.Join (l, _, r, _) ->
    (match find_derived l with Some f -> Some f | None -> find_derived r)

(** First outer join's right-hand item, for span attachment. *)
let rec find_outer = function
  | Ast.Table_ref _ | Ast.Subquery _ -> None
  | Ast.Join (l, (Ast.Left_outer | Ast.Right_outer | Ast.Full_outer), r, _) ->
    (match find_outer l with Some f -> Some f | None -> Some r)
  | Ast.Join (l, _, r, _) ->
    (match find_outer l with Some f -> Some f | None -> find_outer r)

let source_of catalog ~spans (f : Ast.from_clause) :
  (source, Diagnostic.t) result =
  let fspan node = Parser.from_span spans node in
  (* flatten a tree of inner/cross joins over base tables *)
  let rec flatten f : (table_ref list * Ast.expr list, Diagnostic.t) result =
    match f with
    | Ast.Table_ref (name, alias) ->
      Ok ([ table_ref_of catalog name alias ], [])
    | Ast.Join (l, (Ast.Inner | Ast.Cross), r, cond) ->
      Result.bind (flatten l) (fun (lt, lc) ->
          Result.bind (flatten r) (fun (rt, rc) ->
              Ok (lt @ rt, lc @ rc @ Option.to_list cond)))
    | Ast.Join (_, (Ast.Left_outer | Ast.Right_outer | Ast.Full_outer), _, _) ->
      Error
        (Diagnostic.outer_join_unsupported
           ?span:(Option.bind (find_outer f) fspan) ())
    | Ast.Subquery _ ->
      Error (Diagnostic.derived_table_unsupported ?span:(fspan f) ())
  in
  match f with
  | Ast.Table_ref (name, alias) -> Ok (Single (table_ref_of catalog name alias))
  | _ ->
    Result.bind (flatten f) (fun (tables, conditions) ->
        if List.length tables > max_join_tables then
          Error (Diagnostic.too_many_tables ~max:max_join_tables ())
        else begin
          let condition =
            match conditions with
            | [] -> None
            | c :: rest ->
              Some
                (List.fold_left
                   (fun acc x -> Ast.Binary (Ast.And, acc, x))
                   c rest)
          in
          Ok (Joined { tables; condition })
        end)

let input_schema source =
  match source with
  | Single t -> t.schema
  | Joined { tables; _ } ->
    List.concat_map (fun t -> t.schema) tables

(** SUM/AVG whose argument is not integer-typed. Their running state is a
    float, and float addition is not exactly invertible (x + d - d can
    differ from x in the last bits), so any linear combine strategy
    drifts away from a full recompute once deletes retract previously
    added values. Like MIN/MAX, such aggregates must be rederived. This
    matters most for cascades, where an upstream AVG column feeds a
    downstream SUM/AVG. *)
let has_float_sum shape =
  let schema = input_schema shape.source in
  List.exists
    (fun a ->
       match a.agg, a.arg with
       | (Ast.Sum | Ast.Avg), Some arg ->
         (match Expr.infer_type schema arg with
          | Ast.T_int -> false
          | _ -> true)
       | _ -> false)
    (aggregates shape)

(** The hidden state columns an aggregate needs under the linear strategy. *)
let state_columns_for ~visible_name (agg : Ast.agg) =
  match agg with
  | Ast.Sum | Ast.Avg ->
    (Some ("__ivm_sum_" ^ visible_name), Some ("__ivm_nn_" ^ visible_name))
  | Ast.Count | Ast.Min | Ast.Max -> (None, None)

(** Map a classification rejection to its coded diagnostic, attaching the
    best span available. *)
let rejection_diag ~spans (query : Ast.select) (r : Analysis.rejection) :
  Diagnostic.t =
  let qspan = Parser.select_span spans query in
  match r with
  | Analysis.Cte -> Diagnostic.cte_unsupported ?span:qspan ()
  | Analysis.Set_operation ->
    let span =
      match query.Ast.set_operation with
      | Some (_, rhs) -> Parser.select_span spans rhs
      | None -> qspan
    in
    Diagnostic.set_op_unsupported ?span ()
  | Analysis.Distinct -> Diagnostic.distinct_unsupported ?span:qspan ()
  | Analysis.Limit_offset -> Diagnostic.limit_unsupported ?span:qspan ()
  | Analysis.No_from -> Diagnostic.no_from_clause ?span:qspan ()
  | Analysis.Derived_table ->
    let span =
      match query.Ast.from with
      | Some f -> Option.bind (find_derived f) (Parser.from_span spans)
      | None -> qspan
    in
    Diagnostic.derived_table_unsupported ?span ()
  | Analysis.Too_many_tables _ ->
    Diagnostic.too_many_tables ?span:qspan ~max:max_join_tables ()

let analyze_diag (catalog : Catalog.t) ?(spans = Parser.no_spans)
    ~(view_name : string) (query : Ast.select) : (t, Diagnostic.t) result =
  let ( let* ) = Result.bind in
  let espan e = Parser.expr_span spans e in
  let klass = Analysis.classify query in
  let* () =
    match klass with
    | Analysis.Unsupported reason -> Error (rejection_diag ~spans query reason)
    | _ when query.Ast.order_by <> [] ->
      let span =
        match query.Ast.order_by with
        | { Ast.order_expr; _ } :: _ -> espan order_expr
        | [] -> None
      in
      Error (Diagnostic.order_by_unsupported ?span ())
    | _ when query.Ast.having <> None ->
      Error
        (Diagnostic.having_unsupported
           ?span:(Option.bind query.Ast.having espan) ())
    | _ -> Ok ()
  in
  let* source =
    match query.Ast.from with
    | Some f -> source_of catalog ~spans f
    | None -> Error (Diagnostic.no_from_clause ())
  in
  let schema = input_schema source in
  let infer e = Expr.infer_type schema e in
  let aggregated = Ast.select_has_aggregate query in
  (* name projections like the engine planner does *)
  let named =
    List.mapi
      (fun i (e, alias) -> (e, Analysis.projection_name i (e, alias)))
      query.Ast.projections
  in
  let* () =
    match
      List.find_opt
        (fun (e, _) -> e = Ast.Star || e = Ast.Column (None, "*"))
        named
    with
    | Some (star, _) when aggregated ->
      Error (Diagnostic.star_with_aggregates ?span:(espan star) ())
    | _ -> Ok ()
  in
  (* expand stars for flat views *)
  let named =
    List.concat_map
      (fun (e, name) ->
         match e with
         | Ast.Star | Ast.Column (None, "*") ->
           List.map
             (fun c -> (Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name))
             schema
         | Ast.Column (Some q, "*") ->
           List.filter_map
             (fun c ->
                if c.Schema.table = Some q then
                  Some (Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name)
                else None)
             schema
         | _ -> [ (e, name) ])
      named
  in
  let* columns =
    if not aggregated then
      (* flat view: every projection becomes a grouping column *)
      Ok
        (List.map
           (fun (e, name) -> Group_col { expr = e; name; typ = infer e })
           named)
    else begin
      (* aggregate view: every projection is a GROUP BY expression or a
         bare aggregate *)
      let in_group e = List.exists (fun g -> g = e) query.Ast.group_by in
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | (e, name) :: rest ->
          (match e with
           | Ast.Aggregate (agg, distinct, arg) ->
             if distinct then
               Error (Diagnostic.distinct_aggregate ?span:(espan e) ())
             else begin
               let sum_state, nn_state = state_columns_for ~visible_name:name agg in
               let item =
                 { agg; arg; visible_name = name; visible_type = infer e;
                   sum_state; nn_state }
               in
               build (Agg_col item :: acc) rest
             end
           | _ when in_group e ->
             build (Group_col { expr = e; name; typ = infer e } :: acc) rest
           | _ ->
             Error
               (Diagnostic.projection_not_group ?span:(espan e)
                  (Openivm_sql.Pretty.expr_to_sql Openivm_sql.Dialect.duckdb e)))
      in
      let* cols = build [] named in
      (* every GROUP BY expression must be projected, so the view rows are
         keyed by the full group *)
      let projected_groups =
        List.filter_map
          (function Group_col g -> Some g.expr | Agg_col _ -> None)
          cols
      in
      let* () =
        match
          List.find_opt
            (fun g -> not (List.mem g projected_groups))
            query.Ast.group_by
        with
        | Some g -> Error (Diagnostic.group_not_projected ?span:(espan g) ())
        | None -> Ok ()
      in
      Ok cols
    end
  in
  (* reject duplicate output names (the view table could not be created) *)
  let names = List.map (function Group_col g -> g.name | Agg_col a -> a.visible_name) columns in
  let* () =
    match Analysis.duplicate_name names with
    | Some name ->
      (* point at the second projection producing the name *)
      let span =
        match
          List.filter (fun (_, n) -> String.equal n name) named
        with
        | _ :: (e, _) :: _ -> espan e
        | [ (e, _) ] -> espan e
        | [] -> None
      in
      Error (Diagnostic.duplicate_column ?span name)
    | None -> Ok ()
  in
  (* When a source is itself a maintained view, bake the star expansion
     into the stored query: the engine's planner would otherwise expand
     [*] over the backing table's hidden IVM columns (initial load and
     recompute both execute this query verbatim). *)
  let query =
    let reads_view =
      List.exists
        (fun (t : table_ref) -> t.from_view)
        (match source with Single t -> [ t ] | Joined { tables; _ } -> tables)
    in
    let had_star =
      List.exists
        (fun (e, _) ->
           match e with
           | Ast.Star | Ast.Column (_, "*") -> true
           | _ -> false)
        query.Ast.projections
    in
    if reads_view && had_star then
      { query with
        Ast.projections = List.map (fun (e, n) -> (e, Some n)) named }
    else query
  in
  Ok { view_name; query; klass; columns; source; where = query.Ast.where }

let analyze (catalog : Catalog.t) ~(view_name : string) (query : Ast.select) :
  (t, string) result =
  Result.map_error
    (fun (d : Diagnostic.t) -> d.Diagnostic.message)
    (analyze_diag catalog ~view_name query)
