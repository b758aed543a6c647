(** Physical execution of logical plans (materialized, operator at a
    time): hash joins for extractable equality keys (including the
    NULL-safe equalities the IVM combine emits), nested loops otherwise,
    hash aggregation, index scans. *)

type result = {
  schema : Schema.t;
  rows : Row.t list;
}

(** Which interpreter executes plans: the columnar batch executor
    ([Vexec], the default) or this row-at-a-time interpreter, kept as the
    differential oracle. *)
type engine = Row | Vector

val default_engine : engine ref
val engine_to_string : engine -> string
val engine_of_string : string -> engine option

(** Aggregate accumulators, exposed so the vectorized executor's typed
    fold loops share the exact int/float-mode transition and finalize
    semantics. *)
type agg_state =
  | Count_st of int ref
  | Sum_st of { mutable sum_int : int; mutable sum_float : float;
                mutable float_mode : bool; mutable saw : bool }
  | Extremum_st of { is_min : bool; mutable cur : Value.t }
  | Avg_st of { mutable sum_int : int; mutable sum_float : float;
                mutable float_mode : bool; mutable n : int }

val make_state : Sql.Ast.agg -> agg_state
val update_state : agg_state -> Value.t option -> unit
(** [None] argument = COUNT star (count the row regardless). *)

val finalize_state : agg_state -> Value.t

val null_row : int -> Row.t

type join_key = {
  left_expr : Sql.Ast.expr;
  right_expr : Sql.Ast.expr;
  nullsafe : bool;  (** NULL matches NULL (a = b OR (a IS NULL AND b IS NULL)) *)
}

val split_join_condition :
  Schema.t -> Schema.t -> Sql.Ast.expr option ->
  join_key list * Sql.Ast.expr list
(** Split an ON condition into hash keys (plain or NULL-safe equalities
    between the two sides) plus residual conjuncts. *)

val run : Catalog.t -> Plan.t -> result

val join_materialized :
  Catalog.t -> Schema.t -> Plan.t -> Plan.t -> Sql.Ast.join_kind ->
  Sql.Ast.expr option ->
  get_l:(unit -> result) -> get_r:(unit -> result) -> result
(** The join algorithm parameterized over input production ([get_l]/
    [get_r] run at most once each; the index nested-loop path never
    materializes the indexed side). Shared with [Vexec] so both engines
    agree on INLJ choice, build side and match ordering. *)

val aggregate_rows :
  Catalog.t -> Schema.t -> inner:result -> (Sql.Ast.expr * string) list ->
  Plan.agg_spec list -> result
(** Hash aggregation over a materialized input — shared with [Vexec]'s
    boxed fallback (first-seen group order, identical accumulators). *)

val index_scan_rows :
  Catalog.t -> table:string -> index_name:string -> Sql.Ast.expr list ->
  Row.t list
(** The rows a [Plan.Index_scan]'s constant key expressions select
    (shared with [Vexec]); keys are normalised by {!Index_probe.encode},
    so the lookup matches what a scan with [=] would. *)

val subquery_values : Catalog.t -> Sql.Ast.select -> Value.t list
(** Evaluate an uncorrelated subquery to its first column. *)

val compile_expr : Catalog.t -> Schema.t -> Sql.Ast.expr -> Expr.compiled
(** {!Expr.compile} wired to this catalog's subquery resolver. *)
