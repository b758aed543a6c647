(** Translate a parsed SELECT into a logical plan: CTE and view inlining,
    star expansion, aggregate decomposition
    (Project ∘ [Filter having] ∘ Aggregate), ORDER BY resolution with
    hidden sort columns, set operations. *)

val plan : Catalog.t -> Sql.Ast.select -> Plan.t
(** Raises {!Error.Sql_error} on unresolvable names and semantic errors. *)

val plan_from : Catalog.t -> Sql.Ast.from_clause -> Plan.t
(** A FROM clause on its own, columns qualified by their bindings. *)
