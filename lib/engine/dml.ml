(** INSERT / UPDATE / DELETE execution, with trigger firing. *)

type outcome = {
  affected : int;
  change : Trigger.change option;
}

(** Per-table row coercion, with the schema array hoisted out so bulk
    inserts pay the list-to-array conversion once, not per row. Rows that
    already match the schema are returned as-is (no copy). *)
let coercer (schema : Schema.t) : Row.t -> Row.t =
  let cols = Array.of_list schema in
  let ncols = Array.length cols in
  let coerce_one i v =
    if Value.is_null v then begin
      if cols.(i).Schema.not_null then
        Error.fail "NULL violates NOT NULL on column %S" cols.(i).Schema.name;
      v
    end
    else
      match cols.(i).Schema.typ, v with
      | Sql.Ast.T_int, Value.Int _
      | Sql.Ast.T_float, Value.Float _
      | Sql.Ast.T_text, Value.Str _
      | Sql.Ast.T_bool, Value.Bool _
      | Sql.Ast.T_date, Value.Date _ -> v
      | Sql.Ast.T_float, Value.Int i -> Value.Float (float_of_int i)
      | Sql.Ast.T_date, Value.Str s -> Value.date_of_string s
      | t, _ -> Expr.cast_value t v
  in
  fun (row : Row.t) ->
    if Array.length row <> ncols then
      Error.fail "expected %d values, got %d" ncols (Array.length row);
    let out = ref row in
    for i = 0 to ncols - 1 do
      let v = row.(i) in
      let v' = coerce_one i v in
      if v' != v then begin
        if !out == row then out := Array.copy row;
        !out.(i) <- v'
      end
    done;
    !out

let coerce_to_schema (schema : Schema.t) (row : Row.t) : Row.t =
  coercer schema row

(** Plans with no compute — bare scans and column-only projections of one
    — gain nothing from batching; reading them as rows skips the
    batchify/unbatchify round trip on INSERT ... SELECT, which is the
    propagation swap's second statement. A projection that turns out to
    be the identity additionally shares the source row arrays outright
    (rows are immutable payloads; in-place UPDATE copies first). Both
    engines resolve columns identically, so the differential oracle is
    unaffected. Returns [None] for plans that need a real executor;
    successful reads also carry the source schema so the caller can skip
    re-coercing rows that already passed an identically-typed table's
    coercion. *)
let rows_of_simple_plan (catalog : Catalog.t) (plan : Plan.t) :
  (Row.t list * Schema.t) option =
  let simple = function
    | Plan.Scan _ | Plan.Index_scan _ | Plan.Materialized _ -> true
    | _ -> false
  in
  match plan with
  | p when simple p ->
    let r = Exec.run catalog p in
    Some (r.Exec.rows, r.Exec.schema)
  | Plan.Project { input; projections; _ }
    when simple input
         && List.for_all
              (fun (e, _) ->
                 match e with
                 | Sql.Ast.Column (_, name) -> name <> "*"
                 | _ -> false)
              projections ->
    let r = Exec.run catalog input in
    let positions =
      List.map
        (fun (e, _) ->
           match e with
           | Sql.Ast.Column (qualifier, name) ->
             fst (Schema.find r.Exec.schema ~qualifier ~name)
           | _ -> assert false)
        projections
    in
    let width = Schema.arity r.Exec.schema in
    let identity =
      List.length positions = width
      && List.for_all2 ( = ) positions (List.init width Fun.id)
    in
    let src = Array.of_list r.Exec.schema in
    let out_schema = List.map (fun j -> src.(j)) positions in
    if identity then Some (r.Exec.rows, out_schema)
    else begin
      let idx = Array.of_list positions in
      Some
        ( List.map
            (fun (row : Row.t) -> Array.map (fun j -> row.(j)) idx)
            r.Exec.rows,
          out_schema )
    end
  | _ -> None

(** Column-wise coercion of a batch against the target schema: when every
    column's kind already matches its declared type (or is an int column
    feeding a FLOAT column), the batch boxes straight into rows with no
    per-value checking — NOT NULL holds iff the validity bitmap is full.
    Returns [None] when any column needs value-level work (boxed lanes,
    TEXT-to-DATE casts), sending the whole batch down the row path. *)
let coerce_batch (cols : Schema.column array) (b : Vec.Batch.t) :
  Row.t list option =
  let module Col = Vec.Col in
  let module Batch = Vec.Batch in
  let b = Batch.flatten b in
  let width = Array.length b.Batch.cols in
  if width <> Array.length cols then
    Error.fail "expected %d values, got %d" (Array.length cols) width;
  let exception Fallback in
  try
    let coerced =
      Array.mapi
        (fun j (c : Col.t) ->
           let sc = cols.(j) in
           if
             sc.Schema.not_null
             && not
                  (match c.Col.valid with
                   | None ->
                     (match c.Col.data with Col.Boxed _ -> false | _ -> true)
                   | Some bm -> Vec.Bitmap.all_set bm)
           then raise_notrace Fallback (* row path reports the violation *)
           else
             match sc.Schema.typ, c.Col.data with
             | Sql.Ast.T_int, Col.Ints _
             | Sql.Ast.T_float, Col.Floats _
             | Sql.Ast.T_text, Col.Strs _
             | Sql.Ast.T_bool, Col.Bools _
             | Sql.Ast.T_date, Col.Dates _ -> c
             | Sql.Ast.T_float, Col.Ints a ->
               { Col.data = Col.Floats (Array.map float_of_int a);
                 valid = c.Col.valid }
             | _ -> raise_notrace Fallback)
        b.Batch.cols
    in
    Some
      (Array.to_list
         (Batch.to_rows { b with Batch.cols = coerced }))
  with Fallback -> None

(** Rows for an INSERT: evaluate the source, then scatter the values into
    table column order (missing columns become NULL). *)
let insert_rows ~(engine : Exec.engine) (catalog : Catalog.t)
    (table : Table.t) (columns : string list)
    (source : Sql.Ast.insert_source) : Row.t list =
  let schema = table.Table.schema in
  (* a column list that names every table column in order is the same as
     no column list — the propagation scripts always spell it out *)
  let columns =
    if
      List.compare_lengths columns schema = 0
      && List.for_all2
           (fun c (sc : Schema.column) -> String.equal c sc.Schema.name)
           columns schema
    then []
    else columns
  in
  let schema_arr = Array.of_list schema in
  let produced, src_schema =
    match source with
    | Sql.Ast.Values rows ->
      ( `Rows
          (List.map
             (fun exprs -> Array.of_list (List.map Expr.eval_const exprs))
             rows),
        None )
    | Sql.Ast.Query q ->
      let plan = Optimizer.optimize catalog (Planner.plan catalog q) in
      (match rows_of_simple_plan catalog plan with
       | Some (rows, src) -> (`Rows rows, Some src)
       | None ->
         (match (Vexec.run_payload engine catalog plan).Vexec.data with
          | Vexec.Rows rows -> (`Rows rows, None)
          | Vexec.Batches bs when columns = [] ->
            (* coerce column-wise where possible; any batch that can't is
               boxed and sent through the per-row coercer *)
            ( `Coerced
                (List.concat_map
                   (fun b ->
                      match coerce_batch schema_arr b with
                      | Some rows -> rows
                      | None ->
                        List.map (coercer schema)
                          (Array.to_list (Vec.Batch.to_rows b)))
                   bs),
              None )
          | Vexec.Batches bs ->
            ( `Rows
                (List.concat_map
                   (fun b -> Array.to_list (Vec.Batch.to_rows b))
                   bs),
              None )))
  in
  match produced with
  | `Coerced rows -> rows
  | `Rows produced ->
  (* rows lifted straight out of a table whose column types (and NOT NULL
     obligations) already match the target have nothing left to coerce —
     the propagation swap's stage-to-view copy takes this path *)
  let already_coerced =
    columns = []
    && (match src_schema with
        | Some src ->
          List.compare_lengths src schema = 0
          && List.for_all2
               (fun (s : Schema.column) (t : Schema.column) ->
                  s.Schema.typ = t.Schema.typ
                  && ((not t.Schema.not_null) || s.Schema.not_null))
               src schema
        | None -> false)
  in
  let placed =
    if columns = [] then produced
    else begin
      let positions =
        List.map
          (fun c ->
             let i, _ = Schema.find schema ~qualifier:None ~name:c in
             i)
          columns
      in
      let arity = Schema.arity schema in
      List.map
        (fun (row : Row.t) ->
           if Array.length row <> List.length positions then
             Error.fail "INSERT column list has %d columns but %d values supplied"
               (List.length positions) (Array.length row);
           let full = Array.make arity Value.Null in
           List.iteri (fun j pos -> full.(pos) <- row.(j)) positions;
           full)
        produced
    end
  in
  if already_coerced then placed else List.map (coercer schema) placed

let exec_insert ?(engine = !Exec.default_engine) ?(distinct_hint = false)
    catalog triggers ~table ~columns ~source ~on_conflict : outcome =
  let tbl = Catalog.find_table catalog table in
  let rows = insert_rows ~engine catalog tbl columns source in
  let change =
    match on_conflict with
    | Sql.Ast.No_conflict_clause ->
      (* bulk path: defers PK maintenance when the table starts empty *)
      Table.insert_many ~distinct_keys:distinct_hint tbl rows;
      { Trigger.table; inserted = rows; deleted = [] }
    | Sql.Ast.Or_replace | Sql.Ast.Do_nothing ->
      let inserted = ref [] in
      let deleted = ref [] in
      List.iter
        (fun row ->
           match on_conflict with
           | Sql.Ast.No_conflict_clause -> assert false
           | Sql.Ast.Or_replace ->
             (match Table.upsert tbl row with
              | Table.Inserted -> inserted := row :: !inserted
              | Table.Replaced old ->
                deleted := old :: !deleted;
                inserted := row :: !inserted)
           | Sql.Ast.Do_nothing ->
             if Table.insert_ignore tbl row then inserted := row :: !inserted)
        rows;
      { Trigger.table;
        inserted = List.rev !inserted;
        deleted = List.rev !deleted }
  in
  Trigger.fire triggers change;
  { affected = List.length change.Trigger.inserted; change = Some change }

(** Index fast-path for point UPDATE/DELETE: when conjuncts of [where] pin
    every column of the PK or of a secondary index with constants, return
    the candidate slots (a superset of the matching rows — the caller
    still applies the full predicate). *)
let candidate_slots (tbl : Table.t) (where : Sql.Ast.expr option) :
  int list option =
  Option.bind where (fun predicate ->
      Option.map
        (fun (probe, key_exprs, _) ->
           let vals = Array.of_list (List.map Expr.eval_const key_exprs) in
           Index_probe.slots probe
             (Index_probe.encode probe ~nullsafe:Index_probe.strict vals))
        (Index_probe.pinned_by_constants tbl tbl.Table.schema
           (Optimizer.conjuncts predicate)))

(* DELETE ... USING: the rows of [tbl] that some source row satisfies
   [where] with. The source is evaluated once. When the WHERE's
   equi-keys (plain or NULL-safe) cover an index of the target, each
   source row probes it; otherwise the source is hashed on those keys and
   the target scanned once (a nested loop when there are no keys). Every
   candidate pair is checked against the whole WHERE; a slot is deleted
   at most once. *)
let delete_using ~engine catalog (tbl : Table.t) ~source ~where : Row.t list =
  let src =
    Vexec.run_with engine catalog
      (Optimizer.optimize catalog (Planner.plan_from catalog source))
  in
  let ts = Schema.requalify tbl.Table.schema tbl.Table.name in
  let pred =
    match where with
    | None -> fun (_ : Row.t) -> true
    | Some e ->
      let c = Exec.compile_expr catalog (Schema.join ts src.Exec.schema) e in
      fun row -> Expr.is_true (c row)
  in
  let matches trow srow = pred (Row.concat trow srow) in
  let keys, _ = Exec.split_join_condition ts src.Exec.schema where in
  let src_key =
    let cs =
      List.map
        (fun k -> Exec.compile_expr catalog src.Exec.schema k.Exec.right_expr)
        keys
    in
    fun srow -> Array.of_list (List.map (fun c -> c srow) cs)
  in
  match
    Index_probe.for_columns ~exact:false tbl ts
      (List.map (fun k -> k.Exec.left_expr) keys)
  with
  | Some (probe, order) ->
    let nullsafe = Array.of_list (List.map (fun k -> k.Exec.nullsafe) keys) in
    List.concat_map
      (fun srow ->
         let kv = src_key srow in
         let key =
           Index_probe.encode probe
             ~nullsafe:(fun i -> nullsafe.(order.(i)))
             (Array.map (fun j -> kv.(j)) order)
         in
         List.filter_map
           (fun slot ->
              match Table.row_at tbl slot with
              | Some trow when matches trow srow -> Table.delete_slot tbl slot
              | _ -> None)
           (Index_probe.slots probe key))
      src.Exec.rows
  | None when keys = [] ->
    Table.delete_where tbl (fun trow -> List.exists (matches trow) src.Exec.rows)
  | None ->
    let tgt_key =
      let cs =
        List.map (fun k -> Exec.compile_expr catalog ts k.Exec.left_expr) keys
      in
      fun trow -> Array.of_list (List.map (fun c -> c trow) cs)
    in
    let by_key = Row.Tbl.create (List.length src.Exec.rows) in
    List.iter
      (fun srow ->
         let k = src_key srow in
         Row.Tbl.replace by_key k
           (srow :: Option.value (Row.Tbl.find_opt by_key k) ~default:[]))
      src.Exec.rows;
    Table.delete_where tbl (fun trow ->
        match Row.Tbl.find_opt by_key (tgt_key trow) with
        | Some srows -> List.exists (matches trow) srows
        | None -> false)

let exec_delete ?(engine = !Exec.default_engine) ?using catalog triggers
    ~table ~where : outcome =
  let tbl = Catalog.find_table catalog table in
  match using, where with
  | None, None when not (Trigger.has_hooks triggers ~table) ->
    (* full unconditional delete with nobody listening: drop the rows
       without materializing them *)
    let n = Table.truncate tbl in
    { affected = n;
      change = Some { Trigger.table; inserted = []; deleted = [] } }
  | _ ->
  let deleted =
    match using with
    | Some source -> delete_using ~engine catalog tbl ~source ~where
    | None ->
      let pred =
        match where with
        | None -> fun (_ : Row.t) -> true
        | Some e ->
          let c = Exec.compile_expr catalog tbl.Table.schema e in
          fun row -> Expr.is_true (c row)
      in
      (match candidate_slots tbl where with
       | Some slots ->
         List.filter_map
           (fun slot ->
              match Table.row_at tbl slot with
              | Some row when pred row -> Table.delete_slot tbl slot
              | _ -> None)
           slots
       | None -> Table.delete_where tbl pred)
  in
  let change = { Trigger.table; inserted = []; deleted } in
  Trigger.fire triggers change;
  { affected = List.length deleted; change = Some change }

let exec_update catalog triggers ~table ~assignments ~where : outcome =
  let tbl = Catalog.find_table catalog table in
  let schema = tbl.Table.schema in
  let pred =
    match where with
    | None -> fun (_ : Row.t) -> true
    | Some e ->
      let c = Exec.compile_expr catalog schema e in
      fun row -> Expr.is_true (c row)
  in
  let compiled =
    List.map
      (fun (col, e) ->
         let i, colinfo = Schema.find schema ~qualifier:None ~name:col in
         let c = Exec.compile_expr catalog schema e in
         (i, colinfo.Schema.typ, c))
      assignments
  in
  let transform (row : Row.t) : Row.t =
    let fresh = Array.copy row in
    List.iter
      (fun (i, typ, c) ->
         let v = c row in
         fresh.(i) <- (if Value.is_null v then v else Expr.cast_value typ v))
      compiled;
    fresh
  in
  let changed =
    match candidate_slots tbl where with
    | Some slots ->
      let targets =
        List.filter_map
          (fun slot ->
             match Table.row_at tbl slot with
             | Some row when pred row -> Some slot
             | _ -> None)
          slots
      in
      List.map
        (fun slot ->
           let old = Option.get (Table.delete_slot tbl slot) in
           let fresh = transform old in
           Table.insert tbl fresh;
           (old, fresh))
        targets
    | None -> Table.update_where tbl pred transform
  in
  let change =
    { Trigger.table;
      inserted = List.map snd changed;
      deleted = List.map fst changed }
  in
  Trigger.fire triggers change;
  { affected = List.length changed; change = Some change }

let exec_truncate catalog triggers ~table : outcome =
  let tbl = Catalog.find_table catalog table in
  let deleted = Table.to_rows tbl in
  let n = Table.truncate tbl in
  let change = { Trigger.table; inserted = []; deleted } in
  Trigger.fire triggers change;
  { affected = n; change = Some change }
