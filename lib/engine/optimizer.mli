(** Rule-based logical optimizer: constant folding, trivial-filter
    elimination/annihilation, filter splitting and pushdown (through
    Project, to join sides), cross-product-to-join upgrade, projection
    collapsing, and index-scan selection for fully pinned PK/secondary
    keys. The OpenIVM rewrite runs as templates over the analyzed view
    shape after these (paper §2: "as a final step in the optimization"). *)

val fold_constants : Sql.Ast.expr -> Sql.Ast.expr

val conjuncts : Sql.Ast.expr -> Sql.Ast.expr list
(** Top-level AND-conjuncts. *)

val equi_operands : Sql.Ast.expr -> (Sql.Ast.expr * Sql.Ast.expr * bool) option
(** [a = b] as [Some (a, b, false)]; the NULL-safe form
    [a = b OR (a IS NULL AND b IS NULL)] as [Some (a, b, true)]. *)

val conjoin : Sql.Ast.expr list -> Sql.Ast.expr
(** [conjoin []] is [TRUE]. *)

val optimize : Catalog.t -> Plan.t -> Plan.t
