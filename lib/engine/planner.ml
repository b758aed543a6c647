(** Translate a parsed SELECT into a logical plan.

    Aggregation queries are decomposed into
      Project ( [Filter having] ( Aggregate ( input ) ) )
    with aggregate sub-expressions and GROUP BY expressions replaced by
    references to the Aggregate node's output columns. CTEs and derived
    tables are planned recursively and inlined. *)

type env = {
  catalog : Catalog.t;
  ctes : (string * Plan.t) list;
}

let lookup_schema env name = (Catalog.find_table env.catalog name).Table.schema

let schema_of env plan = Plan.schema_of ~lookup:(lookup_schema env) plan

(* --- FROM --- *)

let rec plan_from env (f : Sql.Ast.from_clause) : Plan.t =
  match f with
  | Sql.Ast.Table_ref (name, alias) ->
    let binding = Option.value alias ~default:name in
    (match List.assoc_opt name env.ctes with
     | Some cte_plan ->
       (* inline the CTE, re-exposing its columns under the binding name *)
       let s = schema_of env cte_plan in
       let projections =
         List.map (fun c -> (Sql.Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name)) s
       in
       Plan.Project { input = cte_plan; projections; binding = Some binding }
     | None ->
       (match Catalog.find_view_opt env.catalog name with
        | Some v ->
          (* non-materialized view: expand its definition *)
          let inner = plan_select env v.Catalog.query in
          let s = schema_of env inner in
          let projections =
            List.map (fun c -> (Sql.Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name)) s
          in
          Plan.Project { input = inner; projections; binding = Some binding }
        | None ->
          ignore (Catalog.find_table env.catalog name);
          Plan.Scan { table = name; binding }))
  | Sql.Ast.Subquery (q, alias) ->
    let inner = plan_select env q in
    let s = schema_of env inner in
    let projections =
      List.map (fun c -> (Sql.Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name)) s
    in
    Plan.Project { input = inner; projections; binding = Some alias }
  | Sql.Ast.Join (l, kind, r, condition) ->
    Plan.Join { left = plan_from env l; right = plan_from env r; kind; condition }

(* --- projections --- *)

and expand_stars env (input : Plan.t) (projections : (Sql.Ast.expr * string option) list) :
  (Sql.Ast.expr * string) list =
  let s = schema_of env input in
  let expand i (e, alias) =
    match e with
    | Sql.Ast.Star | Sql.Ast.Column (None, "*") ->
      List.map
        (fun c -> (Sql.Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name))
        s
    | Sql.Ast.Column (Some q, "*") ->
      let cols =
        List.filter (fun c -> c.Schema.table = Some q) s
      in
      if cols = [] then Error.fail "unknown table %S in %s.*" q q;
      List.map
        (fun c -> (Sql.Ast.Column (c.Schema.table, c.Schema.name), c.Schema.name))
        cols
    | _ -> [ (e, Openivm_sql.Analysis.projection_name i (e, alias)) ]
  in
  List.concat (List.mapi expand projections)

(* --- aggregate decomposition --- *)

(** Rewrite [e] so aggregates and group expressions become column
    references into the Aggregate node's output. *)
and rewrite_over_aggregate ~group_exprs ~agg_of_node (e : Sql.Ast.expr) : Sql.Ast.expr =
  let rec go e =
    (* whole-expression match against a GROUP BY expression first; keep the
       qualifier so two group keys sharing a bare name (t1.label, t2.label)
       stay distinguishable in the Aggregate output schema *)
    match List.find_opt (fun (g, _) -> g = e) group_exprs with
    | Some (g, name) ->
      let qualifier =
        match g with Sql.Ast.Column (q, _) -> q | _ -> None
      in
      Sql.Ast.Column (qualifier, name)
    | None ->
      (match e with
       | Sql.Ast.Aggregate _ -> Sql.Ast.Column (None, agg_of_node e)
       | Sql.Ast.Lit _ | Sql.Ast.Column _ | Sql.Ast.Star -> e
       | Sql.Ast.Unary (op, a) -> Sql.Ast.Unary (op, go a)
       | Sql.Ast.Binary (op, a, b) -> Sql.Ast.Binary (op, go a, go b)
       | Sql.Ast.Func (n, args) -> Sql.Ast.Func (n, List.map go args)
       | Sql.Ast.Case (branches, default) ->
         Sql.Ast.Case
           ( List.map (fun (c, v) -> (go c, go v)) branches,
             Option.map go default )
       | Sql.Ast.Cast (a, t) -> Sql.Ast.Cast (go a, t)
       | Sql.Ast.In_list (a, es, neg) -> Sql.Ast.In_list (go a, List.map go es, neg)
       | Sql.Ast.In_select (a, q, neg) -> Sql.Ast.In_select (go a, q, neg)
       | Sql.Ast.Between (a, lo, hi, neg) -> Sql.Ast.Between (go a, go lo, go hi, neg)
       | Sql.Ast.Is_null (a, neg) -> Sql.Ast.Is_null (go a, neg)
       | Sql.Ast.Like (a, b, neg) -> Sql.Ast.Like (go a, go b, neg))
  in
  go e

and plan_aggregate _env (input : Plan.t) (s : Sql.Ast.select)
    (projections : (Sql.Ast.expr * string) list) :
  Plan.t * (Sql.Ast.expr -> Sql.Ast.expr) =
  (* name the group expressions *)
  let group_exprs =
    List.mapi
      (fun i g ->
         match g with
         | Sql.Ast.Column (_, name) -> (g, name)
         | _ -> (g, Printf.sprintf "__grp%d" i))
      s.Sql.Ast.group_by
  in
  (* collect aggregates from projections and HAVING, dedup structurally *)
  let agg_nodes =
    let from_projs =
      List.concat_map (fun (e, _) -> List.rev (Sql.Ast.collect_aggregates [] e)) projections
    in
    let from_having =
      match s.Sql.Ast.having with
      | Some h -> List.rev (Sql.Ast.collect_aggregates [] h)
      | None -> []
    in
    let seen = ref [] in
    List.iter
      (fun (_, _, _, node) -> if not (List.mem node !seen) then seen := node :: !seen)
      (from_projs @ from_having);
    List.rev !seen
  in
  let aggs =
    List.mapi
      (fun i node ->
         match node with
         | Sql.Ast.Aggregate (agg, distinct, arg) ->
           { Plan.agg; distinct; arg; out_name = Printf.sprintf "__agg%d" i }
         | _ -> assert false)
      agg_nodes
  in
  let agg_of_node node =
    let rec idx i = function
      | [] -> Error.fail "internal: aggregate not collected"
      | n :: _ when n = node -> i
      | _ :: rest -> idx (i + 1) rest
    in
    (List.nth aggs (idx 0 agg_nodes)).Plan.out_name
  in
  let agg_plan = Plan.Aggregate { input; group_exprs; aggs } in
  let rewrite = rewrite_over_aggregate ~group_exprs ~agg_of_node in
  let filtered =
    match s.Sql.Ast.having with
    | Some h -> Plan.Filter { input = agg_plan; predicate = rewrite h }
    | None -> agg_plan
  in
  let out_projections =
    List.map (fun (e, name) -> (rewrite e, name)) projections
  in
  ( Plan.Project { input = filtered; projections = out_projections; binding = None },
    rewrite )

(* --- SELECT --- *)

and plan_select env (s : Sql.Ast.select) : Plan.t =
  (* CTEs: plan in order, later CTEs may reference earlier ones *)
  let env =
    List.fold_left
      (fun env (name, q) -> { env with ctes = (name, plan_select env q) :: env.ctes })
      env s.Sql.Ast.ctes
  in
  let core lhs : Plan.t * (Sql.Ast.expr -> Sql.Ast.expr) =
    let input =
      match lhs.Sql.Ast.from with
      | Some f -> plan_from env f
      | None ->
        (* SELECT without FROM: a single empty row *)
        Plan.Materialized { schema = []; rows = [ [||] ]; label = "dual" }
    in
    let input =
      match lhs.Sql.Ast.where with
      | Some predicate -> Plan.Filter { input; predicate }
      | None -> input
    in
    let projections = expand_stars env input lhs.Sql.Ast.projections in
    let projected, key_rewrite =
      if Sql.Ast.select_has_aggregate lhs then
        plan_aggregate env input lhs projections
      else begin
        (match lhs.Sql.Ast.having with
         | Some _ -> Error.fail "HAVING without aggregation"
         | None -> ());
        (Plan.Project { input; projections; binding = None }, fun e -> e)
      end
    in
    ( (if lhs.Sql.Ast.distinct then Plan.Distinct projected else projected),
      key_rewrite )
  in
  let base, key_rewrite = core s in
  let with_set =
    match s.Sql.Ast.set_operation with
    | None -> base
    | Some (op, rhs) ->
      (* the rhs is a bare core (no CTEs of its own, same env) *)
      let rec build lhs_plan (op, rhs) =
        let rhs_plan, _ = core rhs in
        let node = Plan.Set_op { op; left = lhs_plan; right = rhs_plan } in
        match rhs.Sql.Ast.set_operation with
        | Some next -> build node next
        | None -> node
      in
      build base (op, rhs)
  in
  let sorted = plan_order_by env with_set ~key_rewrite s in
  if s.Sql.Ast.limit = None && s.Sql.Ast.offset = None then sorted
  else Plan.Limit { input = sorted; limit = s.Sql.Ast.limit; offset = s.Sql.Ast.offset }

(** Attach ORDER BY. Keys resolve against the output schema; keys that
    instead match a projection's defining expression are redirected to the
    output column; anything else becomes a hidden sort column appended to
    the top Project and stripped again above the Sort. *)
and plan_order_by env (plan : Plan.t) ~key_rewrite (s : Sql.Ast.select) : Plan.t =
  if s.Sql.Ast.order_by = [] then plan
  else begin
    let out_schema = schema_of env plan in
    let keys =
      List.map
        (fun { Sql.Ast.order_expr; descending } ->
           (key_rewrite order_expr, descending))
        s.Sql.Ast.order_by
    in
    let top_projections =
      match plan with
      | Plan.Project { projections; binding = None; _ } -> Some projections
      | _ -> None
    in
    let redirect (e, desc) =
      if Expr.resolves out_schema e then `Ready (e, desc)
      else
        match top_projections with
        | Some projections ->
          (match List.find_opt (fun (def, _) -> def = e) projections with
           | Some (_, name) -> `Ready (Sql.Ast.Column (None, name), desc)
           | None -> `Hidden (e, desc))
        | None -> `Fail e
    in
    let decided = List.map redirect keys in
    let failure =
      List.find_map (function `Fail e -> Some e | _ -> None) decided
    in
    (match failure with
     | Some e ->
       Error.fail "ORDER BY expression %s must appear in the select list"
         (Openivm_sql.Pretty.expr_to_sql Openivm_sql.Dialect.duckdb e)
     | None -> ());
    let hidden =
      List.filter_map (function `Hidden (e, _) -> Some e | _ -> None) decided
    in
    if hidden = [] then
      Plan.Sort
        { input = plan;
          keys = List.map (function `Ready k -> k | _ -> assert false) decided }
    else begin
      match plan with
      | Plan.Project { input; projections; binding } ->
        let hidden_named =
          List.mapi (fun i e -> (e, Printf.sprintf "__ord%d" i)) hidden
        in
        let extended =
          Plan.Project
            { input; projections = projections @ hidden_named; binding }
        in
        let keys =
          List.map
            (function
              | `Ready k -> k
              | `Hidden (e, desc) ->
                let name = List.assoc e hidden_named in
                (Sql.Ast.Column (None, name), desc)
              | `Fail _ -> assert false)
            decided
        in
        let sorted = Plan.Sort { input = extended; keys } in
        (* strip the hidden columns *)
        let visible =
          List.map
            (fun (_, name) -> (Sql.Ast.Column (None, name), name))
            projections
        in
        Plan.Project { input = sorted; projections = visible; binding = None }
      | _ ->
        Error.fail
          "ORDER BY expression must appear in the select list of a set \
           operation or DISTINCT query"
    end
  end

let plan (catalog : Catalog.t) (s : Sql.Ast.select) : Plan.t =
  plan_select { catalog; ctes = [] } s

let plan_from catalog (f : Sql.Ast.from_clause) : Plan.t =
  plan_from { catalog; ctes = [] } f
