(** Tiny AST-building DSL shared by the DDL and propagation generators. *)

module Ast = Openivm_sql.Ast

let col ?q name : Ast.expr = Ast.Column (q, name)
let int_lit i : Ast.expr = Ast.Lit (Ast.L_int i)
let str_lit s : Ast.expr = Ast.Lit (Ast.L_string s)
let bool_lit b : Ast.expr = Ast.Lit (Ast.L_bool b)
let null_lit : Ast.expr = Ast.Lit Ast.L_null

let eq a b : Ast.expr = Ast.Binary (Ast.Eq, a, b)
let neq a b : Ast.expr = Ast.Binary (Ast.Neq, a, b)
let le a b : Ast.expr = Ast.Binary (Ast.Le, a, b)
let gt a b : Ast.expr = Ast.Binary (Ast.Gt, a, b)
let add a b : Ast.expr = Ast.Binary (Ast.Add, a, b)
let div a b : Ast.expr = Ast.Binary (Ast.Div, a, b)
let neg a : Ast.expr = Ast.Unary (Ast.Neg, a)
let and_ a b : Ast.expr = Ast.Binary (Ast.And, a, b)
let or_ a b : Ast.expr = Ast.Binary (Ast.Or, a, b)
let concat a b : Ast.expr = Ast.Binary (Ast.Concat, a, b)
let is_null a : Ast.expr = Ast.Is_null (a, false)

let conjoin = function
  | [] -> bool_lit true
  | e :: rest -> List.fold_left and_ e rest

(** NULL-safe equality: groups with NULL keys must still match their view
    row (plain [=] silently drops them — the Listing-2 caveat). *)
let nullsafe_eq a b : Ast.expr =
  or_ (eq a b) (and_ (is_null a) (is_null b))

let coalesce0 e : Ast.expr = Ast.Func ("coalesce", [ e; int_lit 0 ])

let case_when cond then_ else_ : Ast.expr = Ast.Case ([ (cond, then_) ], Some else_)

let sum_agg e : Ast.expr = Ast.Aggregate (Ast.Sum, false, Some e)
let count_agg e : Ast.expr = Ast.Aggregate (Ast.Count, false, Some e)
let count_star : Ast.expr = Ast.Aggregate (Ast.Count, false, None)

(** SUM(CASE WHEN mult THEN e ELSE -e END) — the signed combination of
    boolean-multiplicity partials. *)
let signed_sum ~mult e : Ast.expr = sum_agg (case_when mult e (neg e))

let select ?(ctes = []) ?from ?where ?(group_by = []) projections : Ast.select =
  { Ast.empty_select with ctes; projections; from; where; group_by }

let table ?alias name : Ast.from_clause = Ast.Table_ref (name, alias)

let join ?condition left right : Ast.from_clause =
  Ast.Join (left, Ast.Inner, right, condition)

let left_join ?condition left right : Ast.from_clause =
  Ast.Join (left, Ast.Left_outer, right, condition)

let insert ?(columns = []) ?(on_conflict = Ast.No_conflict_clause) table source
  : Ast.stmt =
  Ast.Insert { table; columns; source; on_conflict }

let insert_select ?columns ?on_conflict table q : Ast.stmt =
  insert ?columns ?on_conflict table (Ast.Query q)

let delete ?using ?where table : Ast.stmt = Ast.Delete { table; using; where }

let coldef ?(not_null = false) name typ : Ast.column_def =
  { Ast.col_name = name; col_type = typ; col_not_null = not_null;
    col_primary_key = false }

let create_table ?(primary_key = []) ?(if_not_exists = false) name columns :
  Ast.stmt =
  Ast.Create_table { table = name; columns; primary_key; if_not_exists }

(** Projection with a mandatory alias, as (expr, Some name). *)
let proj e name = (e, Some name)
