(** SQL emitter: AST back to a SQL string in a chosen dialect.

    Printing is precedence-aware so emitted SQL stays readable; a
    parse/print/parse round trip is checked by property tests. *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let lit_to_sql = function
  | Ast.L_null -> "NULL"
  | Ast.L_int i -> string_of_int i
  | Ast.L_float f ->
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"
  | Ast.L_string s -> Printf.sprintf "'%s'" (escape_string s)
  | Ast.L_bool b -> if b then "TRUE" else "FALSE"

(* Precedence levels, higher binds tighter; mirrors Parser. *)
let binop_prec = function
  | Ast.Or -> 1
  | Ast.And -> 2
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 4
  | Ast.Add | Ast.Sub | Ast.Concat -> 5
  | Ast.Mul | Ast.Div | Ast.Mod -> 6

let binop_to_sql = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "="
  | Ast.Neq -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "AND"
  | Ast.Or -> "OR"
  | Ast.Concat -> "||"

let rec expr_to_sql d e = expr_prec d 0 e

and expr_prec d ctx e =
  let q = Dialect.quote_ident d in
  let atom s = s in
  let wrap prec s = if prec < ctx then "(" ^ s ^ ")" else s in
  match e with
  | Ast.Lit l -> atom (lit_to_sql l)
  | Ast.Column (None, c) -> atom (if c = "*" then "*" else q c)
  | Ast.Column (Some t, c) ->
    atom (q t ^ "." ^ (if c = "*" then "*" else q c))
  | Ast.Star -> atom "*"
  | Ast.Unary (Ast.Neg, a) ->
    (* a leading '-' on the operand would lex as a line comment (--) *)
    let body = expr_prec d 8 a in
    let body =
      if String.length body > 0 && body.[0] = '-' then "(" ^ body ^ ")"
      else body
    in
    wrap 7 ("-" ^ body)
  | Ast.Unary (Ast.Not, a) -> wrap 3 ("NOT " ^ expr_prec d 3 a)
  | Ast.Binary (op, a, b) ->
    let p = binop_prec op in
    (* comparisons are non-associative (both sides need raising);
       arithmetic and logic are left-associative *)
    let lhs_ctx, rhs_ctx =
      match op with
      (* non-associative: both sides need raising *)
      | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (p + 1, p + 1)
      (* the parser builds AND/OR right-nested *)
      | Ast.And | Ast.Or -> (p + 1, p)
      (* left-associative arithmetic *)
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Concat ->
        (p, p + 1)
    in
    wrap p
      (expr_prec d lhs_ctx a ^ " " ^ binop_to_sql op ^ " " ^ expr_prec d rhs_ctx b)
  | Ast.Func (name, args) ->
    atom
      (String.uppercase_ascii name ^ "("
       ^ String.concat ", " (List.map (expr_prec d 0) args)
       ^ ")")
  | Ast.Aggregate (agg, distinct, arg) ->
    let name = String.uppercase_ascii (Ast.agg_name agg) in
    let body =
      match arg with
      | None -> "*"
      | Some a -> (if distinct then "DISTINCT " else "") ^ expr_prec d 0 a
    in
    atom (name ^ "(" ^ body ^ ")")
  | Ast.Case (branches, default) ->
    let b =
      List.map
        (fun (c, v) ->
           "WHEN " ^ expr_prec d 0 c ^ " THEN " ^ expr_prec d 0 v)
        branches
    in
    let e =
      match default with
      | Some x -> [ "ELSE " ^ expr_prec d 0 x ]
      | None -> []
    in
    atom ("CASE " ^ String.concat " " (b @ e) ^ " END")
  | Ast.Cast (a, t) ->
    atom ("CAST(" ^ expr_prec d 0 a ^ " AS " ^ Ast.typ_to_string t ^ ")")
  | Ast.In_select (a, q, neg) ->
    wrap 4
      (expr_prec d 5 a
       ^ (if neg then " NOT IN (" else " IN (")
       ^ select_to_sql d q
       ^ ")")
  | Ast.In_list (a, items, neg) ->
    wrap 4
      (expr_prec d 5 a
       ^ (if neg then " NOT IN (" else " IN (")
       ^ String.concat ", " (List.map (expr_prec d 0) items)
       ^ ")")
  | Ast.Between (a, lo, hi, neg) ->
    wrap 4
      (expr_prec d 5 a
       ^ (if neg then " NOT BETWEEN " else " BETWEEN ")
       ^ expr_prec d 5 lo ^ " AND " ^ expr_prec d 5 hi)
  | Ast.Is_null (a, neg) ->
    wrap 4 (expr_prec d 5 a ^ (if neg then " IS NOT NULL" else " IS NULL"))
  | Ast.Like (a, b, neg) ->
    wrap 4 (expr_prec d 5 a ^ (if neg then " NOT LIKE " else " LIKE ") ^ expr_prec d 5 b)

and select_to_sql d (s : Ast.select) =
  let q = Dialect.quote_ident d in
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  if s.ctes <> [] then begin
    add "WITH ";
    add
      (String.concat ", "
         (List.map
            (fun (name, query) ->
               q name ^ " AS (" ^ select_to_sql d query ^ ")")
            s.ctes));
    add " "
  end;
  add (select_core_to_sql d s);
  (match s.set_operation with
   | Some (op, rhs) ->
     let kw =
       match op with
       | Ast.Union -> " UNION "
       | Ast.Union_all -> " UNION ALL "
       | Ast.Except -> " EXCEPT "
       | Ast.Intersect -> " INTERSECT "
     in
     add kw;
     add (select_core_to_sql d rhs)
   | None -> ());
  if s.order_by <> [] then begin
    add " ORDER BY ";
    add
      (String.concat ", "
         (List.map
            (fun { Ast.order_expr; descending } ->
               expr_to_sql d order_expr ^ if descending then " DESC" else "")
            s.order_by))
  end;
  (match s.limit with
   | Some n -> add (Printf.sprintf " LIMIT %d" n)
   | None -> ());
  (match s.offset with
   | Some n -> add (Printf.sprintf " OFFSET %d" n)
   | None -> ());
  Buffer.contents buf

and select_core_to_sql d (s : Ast.select) =
  let q = Dialect.quote_ident d in
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  add "SELECT ";
  if s.distinct then add "DISTINCT ";
  add
    (String.concat ", "
       (List.map
          (fun (e, alias) ->
             expr_to_sql d e
             ^ match alias with Some a -> " AS " ^ q a | None -> "")
          s.projections));
  (match s.from with
   | Some f -> add (" FROM " ^ from_to_sql d f)
   | None -> ());
  (match s.where with
   | Some e -> add (" WHERE " ^ expr_to_sql d e)
   | None -> ());
  if s.group_by <> [] then
    add (" GROUP BY " ^ String.concat ", " (List.map (expr_to_sql d) s.group_by));
  (match s.having with
   | Some e -> add (" HAVING " ^ expr_to_sql d e)
   | None -> ());
  Buffer.contents buf

and from_to_sql d f =
  let q = Dialect.quote_ident d in
  match f with
  | Ast.Table_ref (t, None) -> q t
  | Ast.Table_ref (t, Some a) -> q t ^ " AS " ^ q a
  | Ast.Subquery (s, a) -> "(" ^ select_to_sql d s ^ ") AS " ^ q a
  | Ast.Join (l, kind, r, cond) ->
    let kw =
      match kind with
      | Ast.Inner -> " JOIN "
      | Ast.Left_outer -> " LEFT JOIN "
      | Ast.Right_outer -> " RIGHT JOIN "
      | Ast.Full_outer -> " FULL JOIN "
      | Ast.Cross -> " CROSS JOIN "
    in
    let rhs =
      match r with
      | Ast.Join _ -> "(" ^ from_to_sql d r ^ ")"
      | _ -> from_to_sql d r
    in
    from_to_sql d l ^ kw ^ rhs
    ^ (match cond with Some e -> " ON " ^ expr_to_sql d e | None -> "")

(** Emit a statement. [upsert_keys] supplies the conflict-target columns
    needed by dialects whose upsert is [ON CONFLICT (keys) DO UPDATE];
    [upsert_update] the non-key columns to refresh (defaults to insert
    columns minus keys). *)
let stmt_to_sql ?(upsert_keys = []) ?(upsert_update = []) d (stmt : Ast.stmt) =
  let q = Dialect.quote_ident d in
  let rec go stmt =
    match stmt with
    | Ast.Select_stmt s -> select_to_sql d s
    | Ast.Create_table { table; columns; primary_key; if_not_exists } ->
      let col c =
        q c.Ast.col_name ^ " " ^ Ast.typ_to_string c.Ast.col_type
        ^ (if c.Ast.col_not_null then " NOT NULL" else "")
      in
      let pk =
        if primary_key = [] then []
        else [ "PRIMARY KEY (" ^ String.concat ", " (List.map q primary_key) ^ ")" ]
      in
      "CREATE TABLE "
      ^ (if if_not_exists then "IF NOT EXISTS " else "")
      ^ q table ^ " ("
      ^ String.concat ", " (List.map col columns @ pk)
      ^ ")"
    | Ast.Create_view { view; materialized; query } ->
      "CREATE " ^ (if materialized then "MATERIALIZED " else "") ^ "VIEW "
      ^ q view ^ " AS " ^ select_to_sql d query
    | Ast.Create_index { index; table; columns; unique } ->
      "CREATE " ^ (if unique then "UNIQUE " else "") ^ "INDEX "
      ^ q index ^ " ON " ^ q table ^ " ("
      ^ String.concat ", " (List.map q columns) ^ ")"
    | Ast.Insert { table; columns; source; on_conflict } ->
      let cols =
        if columns = [] then ""
        else " (" ^ String.concat ", " (List.map q columns) ^ ")"
      in
      let body =
        match source with
        | Ast.Values rows ->
          " VALUES "
          ^ String.concat ", "
              (List.map
                 (fun row ->
                    "(" ^ String.concat ", " (List.map (expr_to_sql d) row) ^ ")")
                 rows)
        | Ast.Query s -> " " ^ select_to_sql d s
      in
      (match on_conflict, d.Dialect.upsert with
       | Ast.No_conflict_clause, _ ->
         "INSERT INTO " ^ q table ^ cols ^ body
       | Ast.Do_nothing, _ ->
         "INSERT INTO " ^ q table ^ cols ^ body ^ " ON CONFLICT DO NOTHING"
       | Ast.Or_replace, Dialect.Insert_or_replace ->
         "INSERT OR REPLACE INTO " ^ q table ^ cols ^ body
       | Ast.Or_replace, Dialect.On_conflict_do_update ->
         let keys = upsert_keys in
         let update =
           if upsert_update <> [] then upsert_update
           else List.filter (fun c -> not (List.mem c keys)) columns
         in
         let set_clause =
           String.concat ", "
             (List.map (fun c -> q c ^ " = EXCLUDED." ^ q c) update)
         in
         "INSERT INTO " ^ q table ^ cols ^ body
         ^ " ON CONFLICT ("
         ^ String.concat ", " (List.map q keys)
         ^ ") DO UPDATE SET " ^ set_clause)
    | Ast.Update { table; assignments; where } ->
      "UPDATE " ^ q table ^ " SET "
      ^ String.concat ", "
          (List.map (fun (c, e) -> q c ^ " = " ^ expr_to_sql d e) assignments)
      ^ (match where with Some e -> " WHERE " ^ expr_to_sql d e | None -> "")
    | Ast.Delete { table; using; where } ->
      "DELETE FROM " ^ q table
      ^ (match using with Some f -> " USING " ^ from_to_sql d f | None -> "")
      ^ (match where with Some e -> " WHERE " ^ expr_to_sql d e | None -> "")
    | Ast.Drop { kind; name; if_exists } ->
      let kw = match kind with `Table -> "TABLE" | `View -> "VIEW" | `Index -> "INDEX" in
      "DROP " ^ kw ^ " " ^ (if if_exists then "IF EXISTS " else "") ^ q name
    | Ast.Truncate t -> "TRUNCATE " ^ q t
    | Ast.Explain inner -> "EXPLAIN " ^ go inner
    | Ast.Begin_txn -> "BEGIN"
    | Ast.Commit_txn -> "COMMIT"
    | Ast.Rollback_txn -> "ROLLBACK"
  in
  go stmt

let script_to_sql ?(dialect = Dialect.duckdb) stmts =
  String.concat ";\n" (List.map (stmt_to_sql dialect) stmts) ^ ";\n"
