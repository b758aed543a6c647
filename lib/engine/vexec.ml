(** Vectorized (columnar, batch-at-a-time) execution of logical plans.

    The same plan tree the row interpreter ([Exec]) walks is executed over
    {!Vec.Batch} chunks: scans slice tables into typed column batches,
    filters produce selection vectors instead of copying rows, projections
    evaluate expressions column-wise, hash joins build and probe over
    column batches, and SUM/COUNT/AVG/MIN/MAX fold in tight typed loops
    without per-row [Value] allocation.

    Equivalence with [Exec] is a hard requirement — the row engine stays on
    as the differential oracle (fuzzed by [Openivm_fuzz], gated in the
    bench). Two mechanisms keep the engines aligned:

    - operators whose vectorization would not pay (sorts, distinct, set
      ops with dedup, nested-loop and index joins, DISTINCT aggregates,
      mixed-type group keys) run the {e same} code as the row engine,
      either literally (shared [Exec.join_materialized] /
      [Exec.aggregate_rows]) or as a boxed per-row path over materialized
      rows;
    - the vectorized kernels mirror [Exec]'s observable choices exactly:
      first-seen group order, probe-major join output with build-order
      matches, build-on-smaller-side, eager AND/OR evaluation, the
      int-to-float accumulator transitions of SUM/AVG.

    Typed fast paths that hash or encode values (group keys, join keys)
    are restricted to non-float, non-mixed columns: [Value.compare] makes
    [Int 1] equal to [Float 1.0], which byte encodings cannot honour, so
    those columns take the boxed path instead. *)

module Bitmap = Vec.Bitmap
module Sel = Vec.Sel
module Col = Vec.Col
module Batch = Vec.Batch

type payload =
  | Batches of Batch.t list
  | Rows of Row.t list

type vres = {
  schema : Schema.t;
  data : payload;
}

let lookup_of catalog table = (Catalog.find_table catalog table).Table.schema

let payload_rows = function
  | Rows rows -> rows
  | Batches bs -> List.concat_map (fun b -> Array.to_list (Batch.to_rows b)) bs

let payload_length = function
  | Rows rows -> List.length rows
  | Batches bs -> List.fold_left (fun n b -> n + Batch.length b) 0 bs

let to_result (v : vres) : Exec.result =
  { Exec.schema = v.schema; rows = payload_rows v.data }

(* --- metrics (same row counters as the row engine, plus batch shape) --- *)

let op_rows op =
  Openivm_obs.Metrics.counter "minidb_operator_rows_total"
    ~help:"rows emitted per physical operator" ~labels:[ ("op", op) ]

let op_batches op =
  Openivm_obs.Metrics.counter "minidb_operator_batches_total"
    ~help:"column batches emitted per vectorized operator"
    ~labels:[ ("op", op) ]

let rows_per_batch =
  Openivm_obs.Metrics.histogram "minidb_exec_rows_per_batch"
    ~help:"rows per emitted column batch (vectorized engine)"

let counters op = (op_rows op, op_batches op)
let c_scan = counters "scan"
let c_index_scan = counters "index_scan"
let c_materialized = counters "materialized"
let c_filter = counters "filter"
let c_project = counters "project"
let c_join = counters "join"
let c_aggregate = counters "aggregate"
let c_distinct = counters "distinct"
let c_sort = counters "sort"
let c_limit = counters "limit"
let c_setop = counters "set_op"

let op_counter : Plan.t -> _ = function
  | Plan.Scan _ -> c_scan
  | Plan.Index_scan _ -> c_index_scan
  | Plan.Materialized _ -> c_materialized
  | Plan.Filter _ -> c_filter
  | Plan.Project _ -> c_project
  | Plan.Join _ -> c_join
  | Plan.Aggregate _ -> c_aggregate
  | Plan.Distinct _ -> c_distinct
  | Plan.Sort _ -> c_sort
  | Plan.Limit _ -> c_limit
  | Plan.Set_op _ -> c_setop

(* --- vectorized expression compilation --- *)

(** Per-batch evaluation context: a flattened batch (no selection vector)
    plus lazily-boxed rows for closure fallbacks. *)
type ectx = {
  b : Batch.t;
  mutable brows : Row.t array option;
}

let mk_ctx (b : Batch.t) : ectx = { b = Batch.flatten b; brows = None }

let ctx_rows ctx =
  match ctx.brows with
  | Some r -> r
  | None ->
    let r = Batch.to_rows ctx.b in
    ctx.brows <- Some r;
    r

type vexpr = ectx -> Col.t

let valid_fn (c : Col.t) : int -> bool =
  match c.valid with
  | None ->
    (match c.data with
     | Col.Boxed a -> fun i -> a.(i) <> Value.Null
     | _ -> fun _ -> true)
  | Some b -> Bitmap.get b

let merge_valid (a : Col.t) (b : Col.t) : Bitmap.t option =
  match a.valid, b.valid with
  | None, None -> None
  | Some x, None -> Some x
  | None, Some y -> Some y
  | Some x, Some y -> Some (Bitmap.logand x y)

let const_col (v : Value.t) (n : int) : Col.t =
  match v with
  | Value.Int x -> { Col.data = Col.Ints (Array.make n x); valid = None }
  | Value.Float x -> { Col.data = Col.Floats (Array.make n x); valid = None }
  | Value.Bool x -> { Col.data = Col.Bools (Array.make n x); valid = None }
  | Value.Str x -> { Col.data = Col.Strs (Array.make n x); valid = None }
  | Value.Date x -> { Col.data = Col.Dates (Array.make n x); valid = None }
  | Value.Null -> { Col.data = Col.Boxed (Array.make n Value.Null); valid = None }

let elementwise2 (f : Value.t -> Value.t -> Value.t) n (a : Col.t) (b : Col.t) :
  Col.t =
  Col.of_values (Array.init n (fun i -> f (Col.value a i) (Col.value b i)))

let elementwise1 (f : Value.t -> Value.t) n (a : Col.t) : Col.t =
  Col.of_values (Array.init n (fun i -> f (Col.value a i)))

(* Arithmetic kernels; anything outside the pure numeric (and Date) typed
   cases defers to the row engine's per-value primitive, element by
   element, so error and NULL semantics cannot drift. *)
let arith_kernel (op : Sql.Ast.binop) n (a : Col.t) (b : Col.t) : Col.t =
  let fallback () = elementwise2 (Expr.binop_fn op) n a b in
  let float_loop x y (f : float -> float -> float) =
    let r = Array.make n 0.0 in
    for i = 0 to n - 1 do
      r.(i) <- f (x i) (y i)
    done;
    { Col.data = Col.Floats r; valid = merge_valid a b }
  in
  let of_int x i = float_of_int (x : int array).(i) in
  let of_flt (x : float array) i = x.(i) in
  match op, a.data, b.data with
  | (Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul), Col.Ints x, Col.Ints y ->
    let f = match op with
      | Sql.Ast.Add -> ( + ) | Sql.Ast.Sub -> ( - ) | _ -> ( * )
    in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- f x.(i) y.(i) done;
    { Col.data = Col.Ints r; valid = merge_valid a b }
  | (Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul), Col.Ints x, Col.Floats y ->
    let f = match op with
      | Sql.Ast.Add -> ( +. ) | Sql.Ast.Sub -> ( -. ) | _ -> ( *. )
    in
    float_loop (of_int x) (of_flt y) f
  | (Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul), Col.Floats x, Col.Ints y ->
    let f = match op with
      | Sql.Ast.Add -> ( +. ) | Sql.Ast.Sub -> ( -. ) | _ -> ( *. )
    in
    float_loop (of_flt x) (of_int y) f
  | (Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul), Col.Floats x, Col.Floats y ->
    let f = match op with
      | Sql.Ast.Add -> ( +. ) | Sql.Ast.Sub -> ( -. ) | _ -> ( *. )
    in
    float_loop (of_flt x) (of_flt y) f
  | Sql.Ast.Add, Col.Dates x, Col.Ints y ->
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- x.(i) + y.(i) done;
    { Col.data = Col.Dates r; valid = merge_valid a b }
  | Sql.Ast.Add, Col.Ints x, Col.Dates y ->
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- x.(i) + y.(i) done;
    { Col.data = Col.Dates r; valid = merge_valid a b }
  | Sql.Ast.Sub, Col.Dates x, Col.Dates y ->
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- x.(i) - y.(i) done;
    { Col.data = Col.Ints r; valid = merge_valid a b }
  | Sql.Ast.Sub, Col.Dates x, Col.Ints y ->
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- x.(i) - y.(i) done;
    { Col.data = Col.Dates r; valid = merge_valid a b }
  | Sql.Ast.Div, (Col.Ints _ | Col.Floats _), (Col.Ints _ | Col.Floats _) ->
    (* always-float division; a zero divisor nulls the lane *)
    let get (c : Col.t) = match c.data with
      | Col.Ints x -> of_int x
      | Col.Floats x -> of_flt x
      | _ -> assert false
    in
    let xa = get a and yb = get b in
    let va = valid_fn a and vb = valid_fn b in
    let r = Array.make n 0.0 in
    let valid = Bitmap.create n true in
    let any_null = ref false in
    for i = 0 to n - 1 do
      let y = yb i in
      if va i && vb i && y <> 0.0 then r.(i) <- xa i /. y
      else begin
        Bitmap.set valid i false;
        any_null := true
      end
    done;
    { Col.data = Col.Floats r; valid = (if !any_null then Some valid else None) }
  | Sql.Ast.Mod, Col.Ints x, Col.Ints y ->
    let va = valid_fn a and vb = valid_fn b in
    let r = Array.make n 0 in
    let valid = Bitmap.create n true in
    let any_null = ref false in
    for i = 0 to n - 1 do
      if va i && vb i && y.(i) <> 0 then r.(i) <- x.(i) mod y.(i)
      else begin
        Bitmap.set valid i false;
        any_null := true
      end
    done;
    { Col.data = Col.Ints r; valid = (if !any_null then Some valid else None) }
  | _ -> fallback ()

(* Comparison kernels over same-kind (or numeric cross-kind) typed
   columns; NULL operands null the lane ([Expr.compare3] semantics). *)
let cmp_kernel (op : Sql.Ast.binop) (test : int -> bool) n (a : Col.t)
    (b : Col.t) : Col.t =
  let bools (cmp : int -> int) =
    let r = Array.make n false in
    for i = 0 to n - 1 do r.(i) <- test (cmp i) done;
    { Col.data = Col.Bools r; valid = merge_valid a b }
  in
  match a.data, b.data with
  | Col.Ints x, Col.Ints y -> bools (fun i -> compare x.(i) y.(i))
  | Col.Ints x, Col.Floats y ->
    bools (fun i -> compare (float_of_int x.(i)) y.(i))
  | Col.Floats x, Col.Ints y ->
    bools (fun i -> compare x.(i) (float_of_int y.(i)))
  | Col.Floats x, Col.Floats y -> bools (fun i -> compare x.(i) y.(i))
  | Col.Strs x, Col.Strs y -> bools (fun i -> String.compare x.(i) y.(i))
  | Col.Bools x, Col.Bools y -> bools (fun i -> compare x.(i) y.(i))
  | Col.Dates x, Col.Dates y -> bools (fun i -> compare x.(i) y.(i))
  | _ -> elementwise2 (Expr.binop_fn op) n a b

(* Kleene AND/OR over boolean columns: a definite false (resp. true)
   dominates a NULL on the other side. *)
let logic_kernel (op : Sql.Ast.binop) n (a : Col.t) (b : Col.t) : Col.t =
  match a.data, b.data with
  | Col.Bools x, Col.Bools y ->
    let va = valid_fn a and vb = valid_fn b in
    let r = Array.make n false in
    let valid = Bitmap.create n true in
    let any_null = ref false in
    let conj = op = Sql.Ast.And in
    for i = 0 to n - 1 do
      let xa = va i and xb = vb i in
      let dominant =
        if conj then (xa && not x.(i)) || (xb && not y.(i))
        else (xa && x.(i)) || (xb && y.(i))
      in
      if dominant then r.(i) <- not conj
      else if not (xa && xb) then begin
        Bitmap.set valid i false;
        any_null := true
      end
      else r.(i) <- (if conj then x.(i) && y.(i) else x.(i) || y.(i))
    done;
    { Col.data = Col.Bools r; valid = (if !any_null then Some valid else None) }
  | _ -> elementwise2 (Expr.binop_fn op) n a b

let neg_kernel n (a : Col.t) : Col.t =
  match a.data with
  | Col.Ints x ->
    let r = Array.make n 0 in
    for i = 0 to n - 1 do r.(i) <- -x.(i) done;
    { Col.data = Col.Ints r; valid = a.valid }
  | Col.Floats x ->
    let r = Array.make n 0.0 in
    for i = 0 to n - 1 do r.(i) <- -.x.(i) done;
    { Col.data = Col.Floats r; valid = a.valid }
  | _ -> elementwise1 Expr.neg_value n a

let not_kernel n (a : Col.t) : Col.t =
  match a.data with
  | Col.Bools x ->
    let r = Array.make n false in
    for i = 0 to n - 1 do r.(i) <- not x.(i) done;
    { Col.data = Col.Bools r; valid = a.valid }
  | _ -> elementwise1 Expr.logical_not n a

let is_null_kernel ~negated n (a : Col.t) : Col.t =
  let va = valid_fn a in
  let r = Array.make n false in
  for i = 0 to n - 1 do
    let isnull = not (va i) in
    r.(i) <- (if negated then not isnull else isnull)
  done;
  { Col.data = Col.Bools r; valid = None }

(* --- key encoding for typed group/join fast paths ---

   One tag byte per column distinguishes kinds the way [Value.equal] does
   (Int 5 <> Date 5 <> Str "5"); NULL is its own tag. Floats and boxed
   columns are never encoded — [Value.compare] equates Int 1 with
   Float 1.0, which no byte encoding of separate lanes can honour — so
   eligibility checks exclude them and those inputs take the boxed path. *)

let encodable (c : Col.t) =
  match c.data with
  | Col.Floats _ | Col.Boxed _ -> false
  | Col.Ints _ | Col.Bools _ | Col.Strs _ | Col.Dates _ -> true

(* Lane-wise hashing and equality for group keys: identical semantics to
   [Value.hash] / [Value.equal] on the boxed lane, without allocating the
   box. Because they honour cross-type numeric equality (Int 1 = Float
   1.0, integral floats hash like the equal int), the grouping fast path
   has no kind restriction, unlike the byte-encoded join keys below. *)

let lane_hash (c : Col.t) i =
  if not (Col.is_valid c i) then 17
  else
    match c.Col.data with
    | Col.Ints a -> Hashtbl.hash a.(i)
    | Col.Floats a ->
      let f = a.(i) in
      if Float.is_integer f && Float.abs f < 1e15 then
        Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
    | Col.Bools a -> if a.(i) then 31 else 37
    | Col.Strs a -> Hashtbl.hash a.(i)
    | Col.Dates a -> Hashtbl.hash (a.(i) + 0x5ca1ab1e)
    | Col.Boxed a -> Value.hash a.(i)

let lane_equals (c : Col.t) i (v : Value.t) =
  if not (Col.is_valid c i) then Value.is_null v
  else
    match c.Col.data, v with
    | Col.Boxed a, _ -> Value.equal a.(i) v
    | _, Value.Null -> false
    | Col.Ints a, Value.Int x -> a.(i) = x
    | Col.Ints a, Value.Float f -> Stdlib.compare (float_of_int a.(i)) f = 0
    | Col.Floats a, Value.Float f -> Stdlib.compare a.(i) f = 0
    | Col.Floats a, Value.Int x -> Stdlib.compare a.(i) (float_of_int x) = 0
    | Col.Bools a, Value.Bool b -> a.(i) = b
    | Col.Strs a, Value.Str s -> String.equal a.(i) s
    | Col.Dates a, Value.Date d -> a.(i) = d
    | _ -> false

let lane_nonnull (c : Col.t) i =
  Col.is_valid c i
  && (match c.Col.data with
      | Col.Boxed a -> not (Value.is_null a.(i))
      | _ -> true)

(* Lane truth for CASE guards: exactly the row engine's [Bool true]
   match — NULL and non-boolean guard values select no branch. *)
let truth_mask (c : Col.t) n : bool array =
  match c.Col.data with
  | Col.Bools a ->
    let va = valid_fn c in
    Array.init n (fun i -> a.(i) && va i)
  | Col.Boxed a ->
    Array.init n (fun i ->
        match a.(i) with Value.Bool true -> true | _ -> false)
  | _ -> Array.make n false

(* Materialize a column whose lane [i] copies lane [i] of
   [cols.(pick.(i))] ([-1] = NULL) — the select step of the vectorized
   CASE and COALESCE. Same-kind sources keep their typed representation;
   mixed kinds go through boxed values and re-detection. *)
let merge_pick n (cols : Col.t array) (pick : int array) : Col.t =
  let tag (c : Col.t) =
    match c.Col.data with
    | Col.Boxed _ -> 0
    | Col.Ints _ -> 1
    | Col.Floats _ -> 2
    | Col.Bools _ -> 3
    | Col.Strs _ -> 4
    | Col.Dates _ -> 5
  in
  let same_kind =
    Array.length cols > 0
    &&
    let t0 = tag cols.(0) in
    t0 <> 0 && Array.for_all (fun c -> tag c = t0) cols
  in
  if not same_kind then
    Col.of_values
      (Array.init n (fun i ->
           if pick.(i) < 0 then Value.Null else Col.value cols.(pick.(i)) i))
  else begin
    let valid = Bitmap.create n false in
    let set_from sources out =
      for i = 0 to n - 1 do
        let p = pick.(i) in
        if p >= 0 && Col.is_valid cols.(p) i then begin
          out.(i) <- sources.(p).(i);
          Bitmap.set valid i true
        end
      done
    in
    let data =
      match cols.(0).Col.data with
      | Col.Ints _ ->
        let srcs =
          Array.map
            (fun (c : Col.t) ->
               match c.Col.data with Col.Ints a -> a | _ -> assert false)
            cols
        in
        let out = Array.make n 0 in
        set_from srcs out;
        Col.Ints out
      | Col.Dates _ ->
        let srcs =
          Array.map
            (fun (c : Col.t) ->
               match c.Col.data with Col.Dates a -> a | _ -> assert false)
            cols
        in
        let out = Array.make n 0 in
        set_from srcs out;
        Col.Dates out
      | Col.Floats _ ->
        let srcs =
          Array.map
            (fun (c : Col.t) ->
               match c.Col.data with Col.Floats a -> a | _ -> assert false)
            cols
        in
        let out = Array.make n 0.0 in
        set_from srcs out;
        Col.Floats out
      | Col.Bools _ ->
        let srcs =
          Array.map
            (fun (c : Col.t) ->
               match c.Col.data with Col.Bools a -> a | _ -> assert false)
            cols
        in
        let out = Array.make n false in
        set_from srcs out;
        Col.Bools out
      | Col.Strs _ ->
        let srcs =
          Array.map
            (fun (c : Col.t) ->
               match c.Col.data with Col.Strs a -> a | _ -> assert false)
            cols
        in
        let out = Array.make n "" in
        set_from srcs out;
        Col.Strs out
      | Col.Boxed _ -> assert false
    in
    { Col.data;
      valid = (if Bitmap.all_set valid then None else Some valid) }
  end

let encode_lane buf (c : Col.t) i =
  if not (Col.is_valid c i) then Buffer.add_char buf '\x00'
  else
    match c.data with
    | Col.Ints a ->
      Buffer.add_char buf 'i';
      Buffer.add_int64_le buf (Int64.of_int a.(i))
    | Col.Dates a ->
      Buffer.add_char buf 'd';
      Buffer.add_int64_le buf (Int64.of_int a.(i))
    | Col.Bools a ->
      Buffer.add_char buf 'b';
      Buffer.add_char buf (if a.(i) then '\x01' else '\x00')
    | Col.Strs a ->
      Buffer.add_char buf 's';
      Buffer.add_int32_le buf (Int32.of_int (String.length a.(i)));
      Buffer.add_string buf a.(i)
    | Col.Floats _ | Col.Boxed _ -> assert false

(* --- typed aggregate accumulator updates (mirror Exec.update_state) --- *)

let upd_int (st : Exec.agg_state) (i : int) =
  match st with
  | Exec.Count_st n -> incr n
  | Exec.Sum_st s ->
    s.saw <- true;
    if s.float_mode then s.sum_float <- s.sum_float +. float_of_int i
    else s.sum_int <- s.sum_int + i
  | Exec.Avg_st a ->
    a.n <- a.n + 1;
    if a.float_mode then a.sum_float <- a.sum_float +. float_of_int i
    else a.sum_int <- a.sum_int + i
  | Exec.Extremum_st e ->
    (match e.cur with
     | Value.Int c ->
       if (e.is_min && i < c) || ((not e.is_min) && i > c) then
         e.cur <- Value.Int i
     | Value.Null -> e.cur <- Value.Int i
     | _ -> Exec.update_state st (Some (Value.Int i)))

let upd_float (st : Exec.agg_state) (f : float) =
  match st with
  | Exec.Count_st n -> incr n
  | Exec.Sum_st s ->
    s.saw <- true;
    if not s.float_mode then begin
      s.float_mode <- true;
      s.sum_float <- float_of_int s.sum_int
    end;
    s.sum_float <- s.sum_float +. f
  | Exec.Avg_st a ->
    a.n <- a.n + 1;
    if not a.float_mode then begin
      a.float_mode <- true;
      a.sum_float <- float_of_int a.sum_int
    end;
    a.sum_float <- a.sum_float +. f
  | Exec.Extremum_st e ->
    (match e.cur with
     | Value.Float c ->
       let cmp = compare f c in
       if (e.is_min && cmp < 0) || ((not e.is_min) && cmp > 0) then
         e.cur <- Value.Float f
     | Value.Null -> e.cur <- Value.Float f
     | _ -> Exec.update_state st (Some (Value.Float f)))

(* --- all-integer aggregate fast path ---

   When every group-key column is a dense (no NULL lane) [Col.Ints] and
   every aggregate is COUNT or SUM over dense columns, the whole grouping
   runs over unboxed int arrays: inline multiplicative hashing, flat key /
   accumulator storage, and typed output columns. The hash only has to be
   consistent within this one table (equal keys hash equal), not match
   [Value.hash] — all lanes are ints, so no cross-kind probe can occur.
   First-seen group order is insertion order, same as the general path.
   This is the propagation hot path: regroup combines are GROUP BY over
   int group columns with SUM of an int multiplicity. *)

type int_agg_upd =
  | U_count_all            (* count every lane: COUNT star or dense arg *)
  | U_count_bm of Bitmap.t (* COUNT over a lane with a validity bitmap *)
  | U_sum_int of int array (* SUM over dense int lanes *)

let vaggregate_ints schema
    (evaled : (Col.t array * Col.t option array * int) array)
    ~nkeys ~naggs ~nin (aggs_arr : Plan.agg_spec array) : vres option =
  if nkeys = 0 then None (* global agg: empty-input group needs NULL sums *)
  else
    let dense (c : Col.t) =
      match c.Col.valid with None -> true | Some bm -> Bitmap.all_set bm
    in
    let classify =
      try
        Some
          (Array.map
             (fun ((kcols : Col.t array), (acols : Col.t option array), n) ->
                let karrs =
                  Array.map
                    (fun c ->
                       match c.Col.data with
                       | Col.Ints a when dense c -> a
                       | _ -> raise_notrace Exit)
                    kcols
                in
                let upds =
                  Array.mapi
                    (fun k copt ->
                       match aggs_arr.(k).Plan.agg, copt with
                       | Sql.Ast.Count, None -> U_count_all
                       | Sql.Ast.Count, Some { Col.data = Col.Boxed _; _ } ->
                         raise_notrace Exit (* NULLs live inline, not in bitmap *)
                       | Sql.Ast.Count, Some c ->
                         (match c.Col.valid with
                          | None -> U_count_all
                          | Some bm ->
                            if Bitmap.all_set bm then U_count_all
                            else U_count_bm bm)
                       | Sql.Ast.Sum, Some ({ Col.data = Col.Ints a; _ } as c)
                         when dense c -> U_sum_int a
                       | _ -> raise_notrace Exit)
                    acols
                in
                (karrs, upds, n))
             evaled)
      with Exit -> None
    in
    match classify with
    | None -> None
    | Some batches ->
      let cap =
        let c = ref 16 in
        while !c < 2 * nin do c := !c * 2 done;
        !c
      in
      let m = cap - 1 in
      let slots = Array.make cap (-1) in
      let cap_g = max 1 nin in
      let ghash = Array.make cap_g 0 in
      let gkeys = Array.init nkeys (fun _ -> Array.make cap_g 0) in
      let acc = Array.init naggs (fun _ -> Array.make cap_g 0) in
      let ng = ref 0 in
      Array.iter
        (fun ((karrs : int array array), upds, n) ->
           for i = 0 to n - 1 do
             let h = ref 17 in
             for j = 0 to nkeys - 1 do
               h := (!h * 31) + (karrs.(j).(i) * 0x2545f491)
             done;
             let h = !h land max_int in
             let s = ref (h land m) in
             let g = ref (-1) in
             while !g < 0 do
               let cand = slots.(!s) in
               if cand < 0 then begin
                 let fresh = !ng in
                 incr ng;
                 ghash.(fresh) <- h;
                 for j = 0 to nkeys - 1 do
                   gkeys.(j).(fresh) <- karrs.(j).(i)
                 done;
                 slots.(!s) <- fresh;
                 g := fresh
               end
               else if
                 ghash.(cand) = h
                 && (let ok = ref true in
                     for j = 0 to nkeys - 1 do
                       if gkeys.(j).(cand) <> karrs.(j).(i) then ok := false
                     done;
                     !ok)
               then g := cand
               else s := (!s + 1) land m
             done;
             let g = !g in
             for k = 0 to naggs - 1 do
               match upds.(k) with
               | U_count_all -> acc.(k).(g) <- acc.(k).(g) + 1
               | U_count_bm bm ->
                 if Bitmap.get bm i then acc.(k).(g) <- acc.(k).(g) + 1
               | U_sum_int a -> acc.(k).(g) <- acc.(k).(g) + a.(i)
             done
           done)
        batches;
      let ng = !ng in
      let int_col a =
        { Col.data = Col.Ints (Array.sub a 0 ng); valid = None }
      in
      let key_cols = Array.init nkeys (fun j -> int_col gkeys.(j)) in
      let agg_cols = Array.init naggs (fun k -> int_col acc.(k)) in
      Some
        { schema;
          data =
            Batches
              [ { Batch.cols = Array.append key_cols agg_cols;
                  sel = None;
                  nrows = ng } ] }

(* --- scans --- *)

(* Buffers and hash tables here are sized to their input: a refresh that
   folds a handful of delta rows must not allocate batch-sized arrays,
   which bypass the minor heap. *)
let scan_batches (tbl : Table.t) : Batch.t list =
  let width = Table.arity tbl in
  let cap = max 1 (min Batch.batch_size (Table.row_count tbl)) in
  let buf = Array.make cap [||] in
  let n = ref 0 in
  let out = ref [] in
  let flush () =
    if !n > 0 then begin
      out := Batch.of_rows (Array.sub buf 0 !n) ~width :: !out;
      n := 0
    end
  in
  Table.iter_rows
    (fun row ->
       buf.(!n) <- row;
       incr n;
       if !n = cap then flush ())
    tbl;
  flush ();
  List.rev !out

(* Concatenate per-batch columns of one logical column into a single dense
   column (same kind -> typed concat; mixed kinds -> boxed). *)
let concat_cols (cols : Col.t list) (total : int) : Col.t =
  match cols with
  | [] -> { Col.data = Col.Boxed [||]; valid = None }
  | [ c ] -> c
  | first :: _ ->
    let same_kind =
      let kind_of (c : Col.t) =
        match c.data with
        | Col.Ints _ -> 0 | Col.Floats _ -> 1 | Col.Bools _ -> 2
        | Col.Strs _ -> 3 | Col.Dates _ -> 4 | Col.Boxed _ -> 5
      in
      let k = kind_of first in
      List.for_all (fun c -> kind_of c = k) cols
    in
    if not same_kind then
      Col.of_values
        (Array.concat (List.map Col.to_values cols))
    else begin
      let has_validity = List.exists (fun (c : Col.t) -> c.valid <> None) cols in
      let valid =
        if not has_validity then None
        else begin
          let bm = Bitmap.create total true in
          let off = ref 0 in
          List.iter
            (fun (c : Col.t) ->
               let len = Col.length c in
               (match c.valid with
                | None -> ()
                | Some v ->
                  for i = 0 to len - 1 do
                    if not (Bitmap.get v i) then Bitmap.set bm (!off + i) false
                  done);
               off := !off + len)
            cols;
          Some bm
        end
      in
      let data =
        match first.data with
        | Col.Ints _ ->
          Col.Ints (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Ints a -> a | _ -> assert false) cols))
        | Col.Floats _ ->
          Col.Floats (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Floats a -> a | _ -> assert false) cols))
        | Col.Bools _ ->
          Col.Bools (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Bools a -> a | _ -> assert false) cols))
        | Col.Strs _ ->
          Col.Strs (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Strs a -> a | _ -> assert false) cols))
        | Col.Dates _ ->
          Col.Dates (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Dates a -> a | _ -> assert false) cols))
        | Col.Boxed _ ->
          Col.Boxed (Array.concat (List.map (fun (c : Col.t) ->
              match c.data with Col.Boxed a -> a | _ -> assert false) cols))
      in
      { Col.data; valid }
    end

(* Merge a batch list into one dense mega-batch (used by the columnar hash
   join, which needs global row indexes for its gather lists). *)
let mega_batch (width : int) (bs : Batch.t list) : Batch.t =
  let fbs = List.map Batch.flatten bs in
  let total = List.fold_left (fun n (b : Batch.t) -> n + b.nrows) 0 fbs in
  let cols =
    Array.init width (fun j ->
        concat_cols (List.map (fun (b : Batch.t) -> b.cols.(j)) fbs) total)
  in
  { Batch.cols; sel = None; nrows = total }

let null_col n : Col.t =
  { Col.data = Col.Boxed (Array.make n Value.Null); valid = None }

(* All-NULL padding that keeps the template column's kind (with an
   all-false validity bitmap), so the null-extended side of an outer join
   stays on typed kernel paths — COALESCE / CASE / IS NULL over the
   unmatched batch would otherwise fall back to boxed per-lane code. *)
let null_like (template : Col.t) n : Col.t =
  let valid = Some (Bitmap.create n false) in
  match template.Col.data with
  | Col.Ints _ -> { Col.data = Col.Ints (Array.make n 0); valid }
  | Col.Floats _ -> { Col.data = Col.Floats (Array.make n 0.0); valid }
  | Col.Bools _ -> { Col.data = Col.Bools (Array.make n false); valid }
  | Col.Strs _ -> { Col.data = Col.Strs (Array.make n ""); valid }
  | Col.Dates _ -> { Col.data = Col.Dates (Array.make n 0); valid }
  | Col.Boxed _ -> null_col n

let is_scan = function Plan.Scan _ -> true | _ -> false

(* --- the interpreter --- *)

let rec vrun (catalog : Catalog.t) (plan : Plan.t) : vres =
  let v = exec_node catalog plan in
  if Openivm_obs.Span.enabled () then begin
    let rows_c, batches_c = op_counter plan in
    Openivm_obs.Metrics.add rows_c (payload_length v.data);
    match v.data with
    | Batches bs ->
      Openivm_obs.Metrics.add batches_c (List.length bs);
      List.iter
        (fun b ->
           Openivm_obs.Metrics.observe rows_per_batch
             (float_of_int (Batch.length b)))
        bs
    | Rows _ -> ()
  end;
  v

and exec_node (catalog : Catalog.t) (plan : Plan.t) : vres =
  let lookup = lookup_of catalog in
  let schema = Plan.schema_of ~lookup plan in
  match plan with
  | Plan.Scan { table; _ } ->
    { schema; data = Batches (scan_batches (Catalog.find_table catalog table)) }
  | Plan.Index_scan { table; index_name; key_exprs; _ } ->
    { schema;
      data = Rows (Exec.index_scan_rows catalog ~table ~index_name key_exprs) }
  | Plan.Materialized { rows; _ } -> { schema; data = Rows rows }
  | Plan.Filter { input; predicate } ->
    let inner = vrun catalog input in
    (match inner.data with
     | Rows rows ->
       let pred = compile_expr catalog inner.schema predicate in
       { schema = inner.schema;
         data = Rows (List.filter (fun r -> Expr.is_true (pred r)) rows) }
     | Batches bs ->
       let ve = vcompile catalog inner.schema predicate in
       let out =
         List.filter_map
           (fun b ->
              let ctx = mk_ctx b in
              let n = ctx.b.Batch.nrows in
              let c = ve ctx in
              let sel = sel_of_pred c n in
              if Array.length sel = 0 then None
              else Some { ctx.b with Batch.sel = Some sel })
           bs
       in
       { schema = inner.schema; data = Batches out })
  | Plan.Project { input; projections; _ } ->
    let inner = vrun catalog input in
    (match inner.data with
     | Rows rows ->
       let compiled =
         List.map (fun (e, _) -> compile_expr catalog inner.schema e) projections
       in
       { schema;
         data =
           Rows
             (List.map
                (fun r ->
                   Array.of_list (List.map (fun c -> c r) compiled))
                rows) }
     | Batches bs ->
       let compiled =
         Array.of_list
           (List.map (fun (e, _) -> vcompile catalog inner.schema e) projections)
       in
       let out =
         List.map
           (fun b ->
              let ctx = mk_ctx b in
              let cols = Array.map (fun ve -> ve ctx) compiled in
              { Batch.cols; sel = None; nrows = ctx.b.Batch.nrows })
           bs
       in
       { schema; data = Batches out })
  | Plan.Join { left; right; kind; condition } ->
    vjoin catalog schema left right kind condition
  | Plan.Aggregate { input; group_exprs; aggs } ->
    vaggregate catalog schema input group_exprs aggs
  | Plan.Distinct input ->
    let inner = vrun catalog input in
    let seen = Row.Tbl.create 64 in
    let rows =
      List.filter
        (fun r ->
           if Row.Tbl.mem seen r then false
           else begin Row.Tbl.add seen r (); true end)
        (payload_rows inner.data)
    in
    { schema = inner.schema; data = Rows rows }
  | Plan.Sort { input; keys } ->
    let inner = vrun catalog input in
    let compiled =
      List.map
        (fun (e, desc) -> (compile_expr catalog inner.schema e, desc))
        keys
    in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (key, desc) :: rest ->
          let c = Value.compare (key a) (key b) in
          if c <> 0 then if desc then -c else c else go rest
      in
      go compiled
    in
    { schema = inner.schema;
      data = Rows (List.stable_sort cmp (payload_rows inner.data)) }
  | Plan.Limit { input; limit; offset } ->
    let inner = vrun catalog input in
    let rows = payload_rows inner.data in
    let rows =
      match offset with
      | Some n ->
        let rec drop k = function
          | rest when k = 0 -> rest
          | [] -> []
          | _ :: rest -> drop (k - 1) rest
        in
        drop n rows
      | None -> rows
    in
    let rows =
      match limit with
      | Some n ->
        let rec take k = function
          | _ when k = 0 -> []
          | [] -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take n rows
      | None -> rows
    in
    { schema = inner.schema; data = Rows rows }
  | Plan.Set_op { op; left; right } ->
    let l = vrun catalog left and r = vrun catalog right in
    if Schema.arity l.schema <> Schema.arity r.schema then
      Error.fail "set operation arms have different arities (%d vs %d)"
        (Schema.arity l.schema) (Schema.arity r.schema);
    (match op with
     | Sql.Ast.Union_all ->
       (* the one set op that stays columnar: batch concatenation *)
       (match l.data, r.data with
        | Batches lb, Batches rb -> { schema = l.schema; data = Batches (lb @ rb) }
        | _ ->
          { schema = l.schema;
            data = Rows (payload_rows l.data @ payload_rows r.data) })
     | Sql.Ast.Union | Sql.Ast.Except | Sql.Ast.Intersect ->
       let lrows = payload_rows l.data and rrows = payload_rows r.data in
       let distinct rows =
         let seen = Row.Tbl.create 64 in
         List.filter
           (fun row ->
              if Row.Tbl.mem seen row then false
              else begin Row.Tbl.add seen row (); true end)
           rows
       in
       let rows =
         match op with
         | Sql.Ast.Union -> distinct (lrows @ rrows)
         | Sql.Ast.Except ->
           let rset = Row.Tbl.create 64 in
           List.iter (fun row -> Row.Tbl.replace rset row ()) rrows;
           distinct (List.filter (fun row -> not (Row.Tbl.mem rset row)) lrows)
         | _ ->
           let rset = Row.Tbl.create 64 in
           List.iter (fun row -> Row.Tbl.replace rset row ()) rrows;
           distinct (List.filter (fun row -> Row.Tbl.mem rset row) lrows)
       in
       { schema = l.schema; data = Rows rows })

and sel_of_pred (c : Col.t) (n : int) : Sel.t =
  match c.data with
  | Col.Bools a ->
    let va = valid_fn c in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) && va i then incr count
    done;
    let sel = Array.make !count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) && va i then begin
        sel.(!k) <- i;
        incr k
      end
    done;
    sel
  | Col.Boxed a ->
    let count = ref 0 in
    for i = 0 to n - 1 do
      if Expr.is_true a.(i) then incr count
    done;
    let sel = Array.make !count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Expr.is_true a.(i) then begin
        sel.(!k) <- i;
        incr k
      end
    done;
    sel
  | _ -> [||]  (* non-boolean predicate value: never true (Expr.is_true) *)

(* evaluate an uncorrelated subquery to its first column, for IN (SELECT) *)
and subquery_values catalog (q : Sql.Ast.select) : Value.t list =
  let plan = Optimizer.optimize catalog (Planner.plan catalog q) in
  List.filter_map
    (fun row -> if Array.length row > 0 then Some row.(0) else None)
    (to_result (vrun catalog plan)).Exec.rows

and compile_expr catalog schema e =
  Expr.compile ~subquery:(subquery_values catalog) schema e

(* the vectorized expression compiler: kernels for columns, literals,
   arithmetic, comparisons, logic, IS NULL; everything else evaluates the
   row-engine closure over the batch's (lazily) boxed rows *)
and vcompile catalog (schema : Schema.t) (e : Sql.Ast.expr) : vexpr =
  match e with
  | Sql.Ast.Column (qualifier, name) when name <> "*" ->
    let i, _ = Schema.find schema ~qualifier ~name in
    fun ctx -> ctx.b.Batch.cols.(i)
  | Sql.Ast.Lit l ->
    let v = Expr.lit_value l in
    fun ctx -> const_col v ctx.b.Batch.nrows
  | Sql.Ast.Unary (Sql.Ast.Neg, a) ->
    let ca = vcompile catalog schema a in
    fun ctx -> neg_kernel ctx.b.Batch.nrows (ca ctx)
  | Sql.Ast.Unary (Sql.Ast.Not, a) ->
    let ca = vcompile catalog schema a in
    fun ctx -> not_kernel ctx.b.Batch.nrows (ca ctx)
  | Sql.Ast.Is_null (a, negated) ->
    let ca = vcompile catalog schema a in
    fun ctx -> is_null_kernel ~negated ctx.b.Batch.nrows (ca ctx)
  | Sql.Ast.Binary (op, a, b) ->
    let ca = vcompile catalog schema a and cb = vcompile catalog schema b in
    let kernel =
      match op with
      | Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul | Sql.Ast.Div | Sql.Ast.Mod ->
        arith_kernel op
      | Sql.Ast.Eq -> cmp_kernel op (fun c -> c = 0)
      | Sql.Ast.Neq -> cmp_kernel op (fun c -> c <> 0)
      | Sql.Ast.Lt -> cmp_kernel op (fun c -> c < 0)
      | Sql.Ast.Le -> cmp_kernel op (fun c -> c <= 0)
      | Sql.Ast.Gt -> cmp_kernel op (fun c -> c > 0)
      | Sql.Ast.Ge -> cmp_kernel op (fun c -> c >= 0)
      | Sql.Ast.And | Sql.Ast.Or -> logic_kernel op
      | Sql.Ast.Concat ->
        fun n a b -> elementwise2 (Expr.binop_fn op) n a b
    in
    fun ctx ->
      (* both operands evaluate eagerly, as in the row engine *)
      let a = ca ctx and b = cb ctx in
      kernel ctx.b.Batch.nrows a b
  | Sql.Ast.Func (("coalesce" | "ifnull") as name, args)
    when args <> [] && (String.equal name "coalesce" || List.length args = 2)
    ->
    (* first non-NULL lane across the argument columns; arguments evaluate
       left to right and stop at the first column with no NULL lane (the
       row engine's per-row short-circuit, batch-wide). A column with no
       valid lane — the null-padded side of an outer join — contributes
       nothing and is dropped without a per-lane scan. *)
    let cargs = List.map (vcompile catalog schema) args in
    fun ctx ->
      let n = ctx.b.Batch.nrows in
      let all_valid (c : Col.t) =
        match c.Col.valid with
        | Some bm -> Bitmap.all_set bm
        | None -> (match c.Col.data with Col.Boxed _ -> false | _ -> true)
      in
      let all_null (c : Col.t) =
        match c.Col.valid with
        | Some bm -> Bitmap.none_set bm
        | None -> false
      in
      let rec materialize = function
        | [] -> []
        | c :: rest ->
          let col = c ctx in
          if all_valid col then [ col ]
          else if all_null col && rest <> [] then materialize rest
          else col :: materialize rest
      in
      (match materialize cargs with
       | [ col ] -> col
       | cols_list ->
         let cols = Array.of_list cols_list in
         let nc = Array.length cols in
         let pick = Array.make n (-1) in
         for i = 0 to n - 1 do
           (try
              for j = 0 to nc - 1 do
                if lane_nonnull cols.(j) i then begin
                  pick.(i) <- j;
                  raise Exit
                end
              done
            with Exit -> ())
         done;
         merge_pick n cols pick)
  | Sql.Ast.Case (branches, default) when branches <> [] ->
    (* searched CASE: guards become truth masks, lanes pick the first
       true branch (the default column rides along at index [nbr]) *)
    let cbr =
      List.map
        (fun (c, v) -> (vcompile catalog schema c, vcompile catalog schema v))
        branches
    in
    let cdef = Option.map (vcompile catalog schema) default in
    let nbr = List.length cbr in
    let has_def = Option.is_some cdef in
    let values = Array.of_list (List.map snd cbr) in
    fun ctx ->
      let n = ctx.b.Batch.nrows in
      let masks =
        Array.of_list (List.map (fun (c, _) -> truth_mask (c ctx) n) cbr)
      in
      let pick = Array.make n (if has_def then nbr else -1) in
      for i = 0 to n - 1 do
        (try
           for j = 0 to nbr - 1 do
             if masks.(j).(i) then begin
               pick.(i) <- j;
               raise Exit
             end
           done
         with Exit -> ())
      done;
      let uniform =
        if n = 0 then -1
        else begin
          let p0 = pick.(0) in
          try
            for i = 1 to n - 1 do
              if pick.(i) <> p0 then raise_notrace Exit
            done;
            p0
          with Exit -> -1
        end
      in
      if uniform >= 0 then
        (* every lane takes the same branch: evaluate only that branch's
           value — the others stay untouched, like the row engine *)
        (if uniform < nbr then values.(uniform) ctx else (Option.get cdef) ctx)
      else begin
        let cols =
          Array.of_list
            (Array.to_list (Array.map (fun v -> v ctx) values)
             @ (match cdef with Some d -> [ d ctx ] | None -> []))
        in
        merge_pick n cols pick
      end
  | _ ->
    (* Func / Case / Cast / IN / BETWEEN / LIKE / subqueries: the row
       closure over boxed rows *)
    let compiled = compile_expr catalog schema e in
    fun ctx ->
      let rows = ctx_rows ctx in
      Col.of_values (Array.map compiled rows)

(* --- joins --- *)

and vjoin catalog schema left right kind condition : vres =
  let lookup = lookup_of catalog in
  let ls = Plan.schema_of ~lookup left in
  let rs = Plan.schema_of ~lookup right in
  let keys, residual = Exec.split_join_condition ls rs condition in
  (* the shared row-engine join, with inputs produced by this engine *)
  let boxed ?l ?r () =
    let side cached plan () =
      match cached with
      | Some (v : vres) -> to_result v
      | None -> to_result (vrun catalog plan)
    in
    { schema;
      data =
        Rows
          (Exec.join_materialized catalog schema left right kind condition
             ~get_l:(side l left) ~get_r:(side r right)).Exec.rows }
  in
  (* The index nested-loop path triggers only on a bare Scan input of a
     matching join kind; mirroring its worthwhile-check here would
     duplicate Exec internals, so any such shape takes the shared path. *)
  let inlj_possible =
    match kind with
    | Sql.Ast.Inner -> is_scan left || is_scan right
    | Sql.Ast.Left_outer -> is_scan right
    | Sql.Ast.Right_outer -> is_scan left
    | Sql.Ast.Full_outer | Sql.Ast.Cross -> false
  in
  if keys = [] || residual <> [] || inlj_possible then boxed ()
  else begin
    let l = vrun catalog left and r = vrun catalog right in
    match l.data, r.data with
    | Batches lb, Batches rb ->
      let larity = Schema.arity ls and rarity = Schema.arity rs in
      let lmega = mega_batch larity lb and rmega = mega_batch rarity rb in
      let lctx = mk_ctx lmega and rctx = mk_ctx rmega in
      let lk =
        Array.of_list
          (List.map (fun k -> (vcompile catalog ls k.Exec.left_expr) lctx) keys)
      in
      let rk =
        Array.of_list
          (List.map (fun k -> (vcompile catalog rs k.Exec.right_expr) rctx) keys)
      in
      if Array.for_all encodable lk && Array.for_all encodable rk then
        columnar_hash_join ~schema ~kind ~keys lmega rmega lk rk
      else boxed ~l ~r ()
    | _ -> boxed ~l ~r ()
  end

(* Hash equi-join over two dense mega-batches with encodable typed keys and
   no residual. Mirrors the row engine exactly: build on the strictly
   smaller side, probe-major output with matches in build order, then
   left/right null-padded unmatched rows for the outer kinds. *)
and columnar_hash_join ~schema ~kind ~keys lmega rmega lk rk : vres =
  let ln = lmega.Batch.nrows and rn = rmega.Batch.nrows in
  let swap = ln < rn in
  let bk, pk, bn, pn = if swap then (lk, rk, ln, rn) else (rk, lk, rn, ln) in
  let strict =
    Array.of_list (List.map (fun k -> not k.Exec.nullsafe) keys)
  in
  let lane_ok (cols : Col.t array) i =
    let ok = ref true in
    Array.iteri
      (fun j c -> if strict.(j) && not (Col.is_valid c i) then ok := false)
      cols;
    !ok
  in
  let bmatched = Array.make bn false and pmatched = Array.make pn false in
  let all_ints cols =
    Array.for_all
      (fun (c : Col.t) ->
         match c.Col.data with Col.Ints _ -> true | _ -> false)
      cols
  in
  let pl, bl =
    if all_ints bk && all_ints pk then begin
      (* all-integer keys: open-addressing over unboxed lanes, no byte
         encoding or string hashing per probe row. The hash only needs
         internal consistency (NULL lanes hash to a sentinel so
         NULL-safe keys match; strict keys never reach the table with a
         NULL lane thanks to [lane_ok]). Match emission order is the
         same as the generic path: probe-major, build rows in build
         order within a key. *)
      let nk = Array.length bk in
      let barrs =
        Array.map
          (fun (c : Col.t) ->
             match c.Col.data with Col.Ints a -> a | _ -> assert false)
          bk
      and parrs =
        Array.map
          (fun (c : Col.t) ->
             match c.Col.data with Col.Ints a -> a | _ -> assert false)
          pk
      in
      let nullh = 0x3b9aca07 in
      let hash_of (cols : Col.t array) (arrs : int array array) i =
        let h = ref 17 in
        for j = 0 to nk - 1 do
          h :=
            (!h * 31)
            + (if Col.is_valid cols.(j) i then arrs.(j).(i) * 0x2545f491
               else nullh)
        done;
        !h land max_int
      in
      let lanes_equal b i =
        let ok = ref true in
        for j = 0 to nk - 1 do
          if !ok then begin
            let bv = Col.is_valid bk.(j) b and pv = Col.is_valid pk.(j) i in
            if bv <> pv then ok := false
            else if bv && barrs.(j).(b) <> parrs.(j).(i) then ok := false
          end
        done;
        !ok
      in
      let cap =
        let c = ref 16 in
        while !c < 2 * (bn + 1) do c := !c * 2 done;
        !c
      in
      let m = cap - 1 in
      let slots = Array.make cap (-1) in
      let cap_g = max 1 bn in
      let ghash = Array.make cap_g 0 in
      let grep = Array.make cap_g 0 in
      let gmem : int list array = Array.make cap_g [] in
      let ngroups = ref 0 in
      let beq b1 b2 =
        let ok = ref true in
        for j = 0 to nk - 1 do
          if !ok then begin
            let v1 = Col.is_valid bk.(j) b1 and v2 = Col.is_valid bk.(j) b2 in
            if v1 <> v2 then ok := false
            else if v1 && barrs.(j).(b1) <> barrs.(j).(b2) then ok := false
          end
        done;
        !ok
      in
      for b = 0 to bn - 1 do
        if lane_ok bk b then begin
          let h = hash_of bk barrs b in
          let s = ref (h land m) in
          let placed = ref false in
          while not !placed do
            let gid = slots.(!s) in
            if gid < 0 then begin
              let fresh = !ngroups in
              incr ngroups;
              ghash.(fresh) <- h;
              grep.(fresh) <- b;
              gmem.(fresh) <- [ b ];
              slots.(!s) <- fresh;
              placed := true
            end
            else if ghash.(gid) = h && beq grep.(gid) b then begin
              gmem.(gid) <- b :: gmem.(gid);
              placed := true
            end
            else s := (!s + 1) land m
          done
        end
      done;
      let garr =
        Array.init !ngroups (fun g -> Array.of_list (List.rev gmem.(g)))
      in
      let pl = Vec.create ~capacity:(max 8 pn) ~dummy:0 () in
      let bl = Vec.create ~capacity:(max 8 pn) ~dummy:0 () in
      for i = 0 to pn - 1 do
        if lane_ok pk i then begin
          let h = hash_of pk parrs i in
          let s = ref (h land m) in
          let stop = ref false in
          while not !stop do
            let gid = slots.(!s) in
            if gid < 0 then stop := true
            else if ghash.(gid) = h && lanes_equal grep.(gid) i then begin
              Array.iter
                (fun bidx ->
                   ignore (Vec.push pl i);
                   ignore (Vec.push bl bidx);
                   bmatched.(bidx) <- true;
                   pmatched.(i) <- true)
                garr.(gid);
              stop := true
            end
            else s := (!s + 1) land m
          done
        end
      done;
      ( Array.init (Vec.length pl) (Vec.get pl),
        Array.init (Vec.length bl) (Vec.get bl) )
    end
    else begin
      let buf = Buffer.create 64 in
      let encode cols i =
        Buffer.clear buf;
        Array.iter (fun c -> encode_lane buf c i) cols;
        Buffer.contents buf
      in
      let buckets : (string, int list ref) Hashtbl.t =
        Hashtbl.create (bn + 1)
      in
      for i = 0 to bn - 1 do
        if lane_ok bk i then begin
          let key = encode bk i in
          match Hashtbl.find_opt buckets key with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add buckets key (ref [ i ])
        end
      done;
      let frozen : (string, int array) Hashtbl.t =
        Hashtbl.create (Hashtbl.length buckets + 1)
      in
      Hashtbl.iter
        (fun k l -> Hashtbl.replace frozen k (Array.of_list (List.rev !l)))
        buckets;
      let pl = ref [] and bl = ref [] in
      for i = 0 to pn - 1 do
        if lane_ok pk i then
          match Hashtbl.find_opt frozen (encode pk i) with
          | Some arr ->
            Array.iter
              (fun bidx ->
                 pl := i :: !pl;
                 bl := bidx :: !bl;
                 bmatched.(bidx) <- true;
                 pmatched.(i) <- true)
              arr
          | None -> ()
      done;
      (Array.of_list (List.rev !pl), Array.of_list (List.rev !bl))
    end
  in
  let npairs = Array.length pl in
  let li, ri = if swap then (bl, pl) else (pl, bl) in
  let gather_batch (b : Batch.t) sel = Array.map (fun c -> Col.gather c sel) b.Batch.cols in
  let pairs_batch =
    { Batch.cols = Array.append (gather_batch lmega li) (gather_batch rmega ri);
      sel = None;
      nrows = npairs }
  in
  let lmatched = if swap then bmatched else pmatched in
  let rmatched = if swap then pmatched else bmatched in
  let unmatched_sel matched n =
    let count = ref 0 in
    for i = 0 to n - 1 do if not matched.(i) then incr count done;
    let sel = Array.make !count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if not matched.(i) then begin sel.(!k) <- i; incr k end
    done;
    sel
  in
  let larity = Array.length lmega.Batch.cols in
  let rarity = Array.length rmega.Batch.cols in
  let uml () =
    let sel = unmatched_sel lmatched ln in
    let n = Array.length sel in
    if n = 0 then None
    else
      Some
        { Batch.cols =
            Array.append (gather_batch lmega sel)
              (Array.init rarity (fun j -> null_like rmega.Batch.cols.(j) n));
          sel = None;
          nrows = n }
  in
  let umr () =
    let sel = unmatched_sel rmatched rn in
    let n = Array.length sel in
    if n = 0 then None
    else
      Some
        { Batch.cols =
            Array.append
              (Array.init larity (fun j -> null_like lmega.Batch.cols.(j) n))
              (gather_batch rmega sel);
          sel = None;
          nrows = n }
  in
  let tail =
    match kind with
    | Sql.Ast.Inner | Sql.Ast.Cross -> []
    | Sql.Ast.Left_outer -> Option.to_list (uml ())
    | Sql.Ast.Right_outer -> Option.to_list (umr ())
    | Sql.Ast.Full_outer -> Option.to_list (uml ()) @ Option.to_list (umr ())
  in
  let batches = (if npairs = 0 then [] else [ pairs_batch ]) @ tail in
  { schema; data = Batches batches }

(* --- aggregation --- *)

and vaggregate catalog schema input group_exprs aggs : vres =
  let inner = vrun catalog input in
  let boxed () =
    { schema;
      data =
        Rows
          (Exec.aggregate_rows catalog schema
             ~inner:{ Exec.schema = inner.schema; rows = payload_rows inner.data }
             group_exprs aggs).Exec.rows }
  in
  match inner.data with
  | Rows _ -> boxed ()
  | Batches _ when List.exists (fun s -> s.Plan.distinct) aggs -> boxed ()
  | Batches bs ->
    let gcomp =
      Array.of_list
        (List.map (fun (e, _) -> vcompile catalog inner.schema e) group_exprs)
    in
    let acomp =
      Array.of_list
        (List.map
           (fun spec -> Option.map (vcompile catalog inner.schema) spec.Plan.arg)
           aggs)
    in
    let aggs_arr = Array.of_list aggs in
    let naggs = Array.length acomp in
    let nkeys = Array.length gcomp in
    (* pass 1: evaluate key and argument columns for every batch up front,
       so eligibility for the typed fast path below is decided over the
       whole input rather than batch by batch *)
    let evaled =
      Array.of_list
        (List.map
           (fun b ->
              let ctx = mk_ctx b in
              ( Array.map (fun ve -> ve ctx) gcomp,
                Array.map (Option.map (fun ve -> ve ctx)) acomp,
                ctx.b.Batch.nrows ))
           bs)
    in
    let nin = Array.fold_left (fun acc (_, _, n) -> acc + n) 0 evaled in
    match vaggregate_ints schema evaled ~nkeys ~naggs ~nin aggs_arr with
    | Some res -> res
    | None ->
    (* groups live in an open-addressing table probed lane-wise: no key
       string is built per input row, and [lane_hash]/[lane_equals] keep
       the semantics of the row engine's boxed keys (first-seen order,
       NULLs group together, cross-type numeric equality) *)
    (* presize by input rows (groups can't outnumber them) so the hot
       all-distinct case never rehashes mid-stream *)
    let group_keys : Row.t Vec.t =
      Vec.create ~capacity:(max 8 nin) ~dummy:[||] ()
    in
    let group_hashes : int Vec.t =
      Vec.create ~capacity:(max 8 nin) ~dummy:0 ()
    in
    let group_states : Exec.agg_state array Vec.t =
      Vec.create ~capacity:(max 8 nin) ~dummy:[||] ()
    in
    let cap =
      let target = min 262144 (max 16 (2 * nin)) in
      let c = ref 16 in
      while !c < target do
        c := !c * 2
      done;
      ref !c
    in
    let slots = ref (Array.make !cap (-1)) in
    let rehash () =
      cap := !cap * 2;
      slots := Array.make !cap (-1);
      let m = !cap - 1 in
      let table = !slots in
      for g = 0 to Vec.length group_keys - 1 do
        let s = ref (Vec.get group_hashes g land m) in
        while table.(!s) >= 0 do
          s := (!s + 1) land m
        done;
        table.(!s) <- g
      done
    in
    let add_group h key_row =
      let g = Vec.length group_keys in
      ignore (Vec.push group_keys key_row);
      ignore (Vec.push group_hashes h);
      ignore
        (Vec.push group_states
           (Array.map (fun spec -> Exec.make_state spec.Plan.agg) aggs_arr));
      g
    in
    let row_matches (krow : Row.t) (kcols : Col.t array) i =
      let ok = ref true in
      for j = 0 to nkeys - 1 do
        if !ok && not (lane_equals kcols.(j) i krow.(j)) then ok := false
      done;
      !ok
    in
    let find_or_add (kcols : Col.t array) i =
      let h = ref 17 in
      for j = 0 to nkeys - 1 do
        h := (!h * 31) + lane_hash kcols.(j) i
      done;
      let h = !h land max_int in
      let m = !cap - 1 in
      let table = !slots in
      let s = ref (h land m) in
      let res = ref (-1) in
      while !res < 0 do
        let g = table.(!s) in
        if g < 0 then begin
          let krow = Array.init nkeys (fun j -> Col.value kcols.(j) i) in
          let g = add_group h krow in
          table.(!s) <- g;
          if (g + 1) * 2 > !cap then rehash ();
          res := g
        end
        else if
          Vec.get group_hashes g = h
          && row_matches (Vec.get group_keys g) kcols i
        then res := g
        else s := (!s + 1) land m
      done;
      !res
    in
    Array.iter
      (fun ((kcols : Col.t array), (acols : Col.t option array), n) ->
         for i = 0 to n - 1 do
           let g = find_or_add kcols i in
           let states = Vec.get group_states g in
           for k = 0 to naggs - 1 do
             let st = states.(k) in
             match acols.(k) with
             | None -> Exec.update_state st None
             | Some c ->
               (match c.Col.data with
                | Col.Ints a ->
                  if Col.is_valid c i then upd_int st a.(i)
                  else Exec.update_state st (Some Value.Null)
                | Col.Floats a ->
                  if Col.is_valid c i then upd_float st a.(i)
                  else Exec.update_state st (Some Value.Null)
                | _ -> Exec.update_state st (Some (Col.value c i)))
           done
         done)
      evaled;
    (* global aggregate over empty input still yields one row *)
    if group_exprs = [] && Vec.length group_keys = 0 then
      ignore (add_group 17 [||]);
    (* columnar output: key columns re-typed from the stored group rows,
       aggregate columns from the finalized states — downstream HAVING /
       projection stay vectorized *)
    let ngroups = Vec.length group_keys in
    let krows = Array.init ngroups (Vec.get group_keys) in
    let key_cols = Array.init nkeys (Batch.column_of_rows krows) in
    let agg_cols =
      Array.init naggs (fun k ->
          Col.of_values
            (Array.init ngroups (fun g ->
                 Exec.finalize_state (Vec.get group_states g).(k))))
    in
    { schema;
      data =
        Batches
          [ { Batch.cols = Array.append key_cols agg_cols;
              sel = None;
              nrows = ngroups } ] }

(* --- public API --- *)

let run (catalog : Catalog.t) (plan : Plan.t) : Exec.result =
  to_result (vrun catalog plan)

let run_with (engine : Exec.engine) (catalog : Catalog.t) (plan : Plan.t) :
  Exec.result =
  match engine with
  | Exec.Row -> Exec.run catalog plan
  | Exec.Vector -> run catalog plan

let run_payload (engine : Exec.engine) (catalog : Catalog.t) (plan : Plan.t) :
  vres =
  match engine with
  | Exec.Row ->
    let r = Exec.run catalog plan in
    { schema = r.Exec.schema; data = Rows r.Exec.rows }
  | Exec.Vector -> vrun catalog plan
