(** Normalized description of an IVM-maintainable view definition:
    [analyze] validates a query against the supported classes and lowers
    it into the shape the DDL and propagation generators consume. *)

module Ast = Openivm_sql.Ast
module Analysis = Openivm_sql.Analysis
open Openivm_engine

type aggregate_item = {
  agg : Ast.agg;
  arg : Ast.expr option;       (** None = COUNT star *)
  visible_name : string;
  visible_type : Ast.typ;
  sum_state : string option;   (** hidden running-sum column (SUM/AVG) *)
  nn_state : string option;    (** hidden non-null-count column (SUM/AVG) *)
}

type column_spec =
  | Group_col of { expr : Ast.expr; name : string; typ : Ast.typ }
  | Agg_col of aggregate_item

type table_ref = {
  table : string;
  binding : string;
  schema : Schema.t;  (** requalified with the binding *)
  from_view : bool;
      (** source is a maintained materialized view; [schema] is its
          visible column prefix (hidden IVM state excluded) *)
}

type source =
  | Single of table_ref
  | Joined of {
      tables : table_ref list;     (** two to four, in FROM order *)
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

val count_column : string
(** The hidden group-size column ([__ivm_count]). *)

val stage_table : t -> string
val max_join_tables : int

val group_cols : t -> (Ast.expr * string) list
val aggregates : t -> aggregate_item list
val has_aggregates : t -> bool
val has_min_max : t -> bool

(** SUM/AVG over a non-integer argument. Float running state is not
    exactly invertible under retraction, so these route to rederive /
    full recompute exactly like MIN/MAX (see {!Openivm.Propagate}). *)
val has_float_sum : t -> bool
val is_global : t -> bool
val visible_names : t -> string list
val base_tables : t -> table_ref list
val input_schema : source -> Schema.t

val analyze_diag :
  Catalog.t ->
  ?spans:Openivm_sql.Parser.spans ->
  view_name:string ->
  Ast.select ->
  (t, Openivm_sql.Diagnostic.t) result
(** Validate and lower a view query. Rejections are coded diagnostics;
    pass the parser's [spans] so they carry source positions. *)

val analyze : Catalog.t -> view_name:string -> Ast.select -> (t, string) result
(** [analyze_diag] with the diagnostic collapsed to its message. *)
