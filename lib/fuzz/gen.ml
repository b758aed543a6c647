(** Seeded generators for schemas, IVM view definitions, DML workloads and
    plain SELECT queries. Everything is a pure function of the seed: the
    same seed always yields the same {!Case.t}, which is what makes
    [openivm fuzz --seed N --cases 1] an exact reproducer.

    The grammar deliberately covers the delicate corners of Z-set
    propagation: NULLs in group keys and aggregate inputs, duplicate rows
    (multiplicity > 1), deletes that empty a whole group, updates that
    flip values to NULL, dimension churn under joins, and every aggregate
    class the compiler accepts (SUM / COUNT / COUNT(col) / MIN / MAX /
    AVG, grouped, global and flat). Views stay inside the classes
    {!Openivm.Shape.analyze} supports by construction. *)

module R = Random.State

(* List.init's evaluation order is unspecified; generation must consume
   the RNG left to right, so build lists explicitly in order. *)
let init_ordered n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let pick rng xs = List.nth xs (R.int rng (List.length xs))

(** True with probability [num]/[den]. *)
let chance rng num den = R.int rng den < num

(* --- schema --- *)

type int_key = { ik_name : string; ik_domain : int }

type dim = {
  dim_name : string;
  dim_key : int_key;   (** the fact column it joins on *)
  dim_labels : int;    (** label domain size *)
}

type schema_spec = {
  str_key : string option;   (** VARCHAR key over a small letter domain *)
  int_keys : int_key list;   (** one or two, small integer domains *)
  vals : string list;        (** one to three INTEGER value columns *)
  dims : dim list;           (** zero to two dimension tables *)
}

let gen_schema rng : schema_spec =
  let str_key = if chance rng 3 4 then Some "k1" else None in
  let n_int = 1 + R.int rng 2 in
  let int_keys =
    init_ordered n_int (fun i ->
        { ik_name = Printf.sprintf "k%d" (i + 2); ik_domain = 3 + R.int rng 3 })
  in
  let dims =
    List.concat
      (List.map
         (fun k ->
            if chance rng 1 2 then
              [ { dim_name = "dim_" ^ k.ik_name; dim_key = k;
                  dim_labels = 2 + R.int rng 2 } ]
            else [])
         int_keys)
  in
  let vals =
    init_ordered (1 + R.int rng 3) (fun i -> Printf.sprintf "v%d" (i + 1))
  in
  { str_key; int_keys; vals; dims }

let schema_sql (s : schema_spec) : string list =
  let fact_cols =
    (match s.str_key with Some k -> [ k ^ " VARCHAR" ] | None -> [])
    @ List.map (fun k -> k.ik_name ^ " INTEGER") s.int_keys
    @ List.map (fun v -> v ^ " INTEGER") s.vals
  in
  Printf.sprintf "CREATE TABLE fact(%s)" (String.concat ", " fact_cols)
  :: List.map
    (fun d ->
       Printf.sprintf "CREATE TABLE %s(%s INTEGER, label VARCHAR)" d.dim_name
         d.dim_key.ik_name)
    s.dims

(* Secondary indexes in a seeded half of the schemas — one fact key
   column plus every dimension's join key — so index scans and the base
   side of index nested-loop joins (fill terms, the MIN/MAX rederive's
   key-set join) run under the oracle. Drawn from a stream of its own, so
   every other statement of a seed stays what it was. *)
let index_sql ~seed (s : schema_spec) : string list =
  let rng = R.make [| 0x1d8; seed |] in
  if not (chance rng 1 2) then []
  else
    let keys =
      (match s.str_key with Some k -> [ k ] | None -> [])
      @ List.map (fun k -> k.ik_name) s.int_keys
    in
    let k = pick rng keys in
    Printf.sprintf "CREATE INDEX idx_fact_%s ON fact(%s)" k k
    :: List.map
      (fun d ->
         Printf.sprintf "CREATE INDEX idx_%s ON %s(%s)" d.dim_name d.dim_name
           d.dim_key.ik_name)
      s.dims

(* --- values --- *)

let str_key_value rng =
  if chance rng 1 8 then "NULL"
  else Printf.sprintf "'%c'" (Char.chr (Char.code 'a' + R.int rng 3))

let int_key_value rng (k : int_key) =
  if chance rng 1 10 then "NULL" else string_of_int (R.int rng k.ik_domain)

let val_value rng =
  if chance rng 1 8 then "NULL" else string_of_int (R.int rng 80)

let fact_row rng (s : schema_spec) =
  String.concat ", "
    ((match s.str_key with Some _ -> [ str_key_value rng ] | None -> [])
     @ List.map (int_key_value rng) s.int_keys
     @ List.map (fun _ -> val_value rng) s.vals)

let insert_fact rng s =
  Printf.sprintf "INSERT INTO fact VALUES (%s)" (fact_row rng s)

(** Insert the same row twice — a Z-set multiplicity of 2 in one step. *)
let insert_fact_dup rng s =
  let row = fact_row rng s in
  Printf.sprintf "INSERT INTO fact VALUES (%s), (%s)" row row

(** A row whose every value column is NULL. *)
let insert_fact_null_vals rng (s : schema_spec) =
  let cells =
    (match s.str_key with Some _ -> [ str_key_value rng ] | None -> [])
    @ List.map (int_key_value rng) s.int_keys
    @ List.map (fun _ -> "NULL") s.vals
  in
  Printf.sprintf "INSERT INTO fact VALUES (%s)" (String.concat ", " cells)

let insert_dim rng (d : dim) =
  Printf.sprintf "INSERT INTO %s VALUES (%d, 'L%d')" d.dim_name
    (R.int rng d.dim_key.ik_domain)
    (R.int rng d.dim_labels)

(* --- setup: initial population, executed before the view installs --- *)

let gen_setup rng (s : schema_spec) : string list =
  (* cover every dim key value once so joins usually match, then noise *)
  let dim_rows =
    List.concat
      (List.map
         (fun d ->
            init_ordered d.dim_key.ik_domain (fun i ->
                Printf.sprintf "INSERT INTO %s VALUES (%d, 'L%d')" d.dim_name i
                  (R.int rng d.dim_labels)))
         s.dims)
  in
  dim_rows @ init_ordered (6 + R.int rng 8) (fun _ -> insert_fact rng s)

(* --- workload steps --- *)

let gen_step rng (s : schema_spec) : string =
  let ik () = pick rng s.int_keys in
  let v () = pick rng s.vals in
  match R.int rng 16 with
  | 0 | 1 | 2 | 3 | 4 -> insert_fact rng s
  | 5 -> insert_fact_dup rng s
  | 6 -> insert_fact_null_vals rng s
  | 7 ->
    let v = v () in
    let k = ik () in
    Printf.sprintf "UPDATE fact SET %s = %s + %d WHERE %s = %d" v v
      (1 + R.int rng 9)
      k.ik_name (R.int rng k.ik_domain)
  | 8 ->
    let v = v () in
    Printf.sprintf "UPDATE fact SET %s = NULL WHERE %s > %d" v v
      (40 + R.int rng 40)
  | 9 ->
    let k = ik () in
    Printf.sprintf "DELETE FROM fact WHERE %s = %d AND %s %% 3 = %d" k.ik_name
      (R.int rng k.ik_domain)
      (v ())
      (R.int rng 3)
  | 10 ->
    (* delete a whole group — the group-becomes-empty path *)
    let k = ik () in
    Printf.sprintf "DELETE FROM fact WHERE %s = %d" k.ik_name
      (R.int rng k.ik_domain)
  | 11 ->
    (match s.str_key with
     | Some k ->
       Printf.sprintf "DELETE FROM fact WHERE %s = '%c'" k
         (Char.chr (Char.code 'a' + R.int rng 3))
     | None -> insert_fact rng s)
  | 12 ->
    (match s.dims with [] -> insert_fact rng s | dims -> insert_dim rng (pick rng dims))
  | 13 ->
    (match s.dims with
     | [] -> insert_fact_dup rng s
     | dims ->
       let d = pick rng dims in
       Printf.sprintf "DELETE FROM %s WHERE %s = %d" d.dim_name
         d.dim_key.ik_name
         (R.int rng d.dim_key.ik_domain))
  | 14 ->
    let target = v () in
    let cond = v () in
    Printf.sprintf "UPDATE fact SET %s = %s - %d WHERE %s %% 2 = 0" target
      target
      (1 + R.int rng 5)
      cond
  | _ ->
    let k = ik () in
    Printf.sprintf "UPDATE fact SET %s = %d WHERE %s IS NULL" k.ik_name
      (R.int rng k.ik_domain)
      k.ik_name

(* --- view definitions --- *)

type view_class = Flat | Grouped | Global

(** One output column of a generated view, as seen by a downstream
    (cascaded) view: its alias plus whether it is numeric — only numeric
    columns may feed the second level's aggregates. *)
type out_col = { oc_name : string; oc_numeric : bool }

(** Render a view definition that stays inside the classes the compiler
    accepts: inner joins over fact plus a subset of dims, projections that
    are either group keys or aggregates, optional WHERE, no
    DISTINCT/ORDER BY/HAVING/LIMIT/CTEs. Returns the SQL together with
    the view's output-column metadata so {!gen_view2} can stack a second
    view on top of it. *)
let gen_view rng (s : schema_spec) : string * out_col list =
  let dims_used = List.filter (fun _ -> chance rng 1 2) s.dims in
  let joined = dims_used <> [] in
  let fq c = if joined then "fact." ^ c else c in
  (* (expression, is-numeric) — the flag follows the column into the
     cascade metadata so second-level aggregates stay over numbers *)
  let key_exprs =
    (match s.str_key with Some k -> [ (fq k, false) ] | None -> [])
    @ List.map (fun k -> (fq k.ik_name, true)) s.int_keys
    @ List.map (fun d -> (d.dim_name ^ ".label", false)) dims_used
    @ (if chance rng 1 4 then
         [ (Printf.sprintf "%s %% 2" (fq (pick rng s.int_keys).ik_name), true) ]
       else [])
  in
  let vcol () = fq (pick rng s.vals) in
  let agg_exprs =
    let base =
      [ (fun () -> Printf.sprintf "SUM(%s)" (vcol ()));
        (fun () -> "COUNT(*)");
        (fun () -> Printf.sprintf "COUNT(%s)" (vcol ()));
        (fun () -> Printf.sprintf "MIN(%s)" (vcol ()));
        (fun () -> Printf.sprintf "MAX(%s)" (vcol ()));
        (fun () -> Printf.sprintf "AVG(%s)" (vcol ())) ]
    in
    if List.length s.vals >= 2 then
      base
      @ [ (fun () ->
            Printf.sprintf "SUM(%s + %s)" (fq (List.nth s.vals 0))
              (fq (List.nth s.vals 1))) ]
    else base
  in
  let klass =
    match R.int rng 5 with 0 -> Flat | 1 -> Global | _ -> Grouped
  in
  let keys =
    match klass with
    | Global -> []
    | Flat | Grouped ->
      let subset = List.filter (fun _ -> chance rng 1 2) key_exprs in
      if subset = [] then [ List.hd key_exprs ] else subset
  in
  let aggs =
    match klass with
    | Flat -> []
    | Global | Grouped ->
      init_ordered (1 + R.int rng 3) (fun _ -> (pick rng agg_exprs) ())
  in
  let flat_extra_vals =
    match klass with
    | Flat ->
      List.filter (fun _ -> chance rng 1 3)
        (List.map (fun v -> (fq v, true)) s.vals)
    | Global | Grouped -> []
  in
  let g_cols = keys @ flat_extra_vals in
  let projections =
    List.mapi (fun i (k, _) -> Printf.sprintf "%s AS g%d" k (i + 1)) g_cols
    @ List.mapi (fun i a -> Printf.sprintf "%s AS a%d" a (i + 1)) aggs
  in
  let out_cols =
    List.mapi
      (fun i (_, numeric) ->
         { oc_name = Printf.sprintf "g%d" (i + 1); oc_numeric = numeric })
      g_cols
    @ List.mapi
      (fun i _ -> { oc_name = Printf.sprintf "a%d" (i + 1); oc_numeric = true })
      aggs
  in
  let from =
    List.fold_left
      (fun acc d ->
         Printf.sprintf "%s JOIN %s ON fact.%s = %s.%s" acc d.dim_name
           d.dim_key.ik_name d.dim_name d.dim_key.ik_name)
      "fact" dims_used
  in
  let where =
    match R.int rng 6 with
    | 0 -> Some (Printf.sprintf "%s > %d" (vcol ()) (R.int rng 40))
    | 1 -> Some (Printf.sprintf "%s %% 2 = 0" (vcol ()))
    | 2 ->
      (match s.str_key with
       | Some k -> Some (fq k ^ " IS NOT NULL")
       | None -> None)
    | 3 ->
      let lo = R.int rng 30 in
      Some (Printf.sprintf "%s BETWEEN %d AND %d" (vcol ()) lo (lo + 10 + R.int rng 40))
    | _ -> None
  in
  let group_by =
    match klass with
    | Flat | Global -> ""
    | Grouped -> " GROUP BY " ^ String.concat ", " (List.map fst keys)
  in
  ( Printf.sprintf "CREATE MATERIALIZED VIEW v AS SELECT %s FROM %s%s%s"
      (String.concat ", " projections)
      from
      (match where with Some w -> " WHERE " ^ w | None -> "")
      group_by,
    out_cols )

(** A second-level view stacked over [v] — reads only the upstream view's
    output columns, so the whole case exercises the cascade scheduler:
    ΔV capture on v's backing table, topological refresh ordering, and
    delta consolidation of upstream churn. *)
let gen_view2 rng (up : out_col list) : string =
  let numeric = List.filter (fun c -> c.oc_numeric) up in
  let klass =
    match R.int rng 5 with 0 -> Flat | 1 -> Global | _ -> Grouped
  in
  let keys =
    match klass with
    | Global -> []
    | Flat | Grouped ->
      let subset = List.filter (fun _ -> chance rng 1 2) up in
      (match subset with [] -> [ List.hd up ] | s -> s)
  in
  let agg () =
    match numeric with
    | [] -> "COUNT(*)"
    | _ ->
      let c = (pick rng numeric).oc_name in
      (match R.int rng 6 with
       | 0 -> Printf.sprintf "SUM(%s)" c
       | 1 -> "COUNT(*)"
       | 2 -> Printf.sprintf "COUNT(%s)" c
       | 3 -> Printf.sprintf "MIN(%s)" c
       | 4 -> Printf.sprintf "MAX(%s)" c
       | _ -> Printf.sprintf "AVG(%s)" c)
  in
  let aggs =
    match klass with
    | Flat -> []
    | Global | Grouped -> init_ordered (1 + R.int rng 2) (fun _ -> agg ())
  in
  let projections =
    List.mapi (fun i k -> Printf.sprintf "%s AS h%d" k.oc_name (i + 1)) keys
    @ List.mapi (fun i a -> Printf.sprintf "%s AS b%d" a (i + 1)) aggs
  in
  let where =
    match R.int rng 4 with
    | 0 -> Some (Printf.sprintf "%s IS NOT NULL" (pick rng up).oc_name)
    | 1 when numeric <> [] ->
      Some (Printf.sprintf "%s > %d" (pick rng numeric).oc_name (R.int rng 20))
    | _ -> None
  in
  let group_by =
    match klass with
    | Flat | Global -> ""
    | Grouped ->
      " GROUP BY "
      ^ String.concat ", " (List.map (fun k -> k.oc_name) keys)
  in
  Printf.sprintf "CREATE MATERIALIZED VIEW v2 AS SELECT %s FROM v%s%s"
    (String.concat ", " projections)
    (match where with Some w -> " WHERE " ^ w | None -> "")
    group_by

(* --- SELECT queries for the optimizer / roundtrip oracle --- *)

let gen_query rng (s : schema_spec) : string =
  let join_dim =
    match s.dims with
    | [] -> None
    | dims -> if chance rng 1 3 then Some (pick rng dims) else None
  in
  let fq c = "fact." ^ c in
  let v () = fq (pick rng s.vals) in
  let ik () = pick rng s.int_keys in
  let scalar () =
    match R.int rng 5 with
    | 0 -> fq (ik ()).ik_name
    | 1 -> v ()
    | 2 -> Printf.sprintf "%s + 1" (v ())
    | 3 -> Printf.sprintf "%s %% 5" (v ())
    | _ ->
      (match s.str_key with Some k -> fq k | None -> fq (ik ()).ik_name)
  in
  let predicate () =
    match R.int rng 8 with
    | 0 -> Printf.sprintf "%s > %d" (v ()) (R.int rng 40)
    | 1 ->
      let k = ik () in
      Printf.sprintf "%s = %d" (fq k.ik_name) (R.int rng k.ik_domain)
    | 2 ->
      (match s.str_key with
       | Some k -> Printf.sprintf "%s <> 'a'" (fq k)
       | None -> Printf.sprintf "%s IS NOT NULL" (v ()))
    | 3 ->
      let lo = R.int rng 30 in
      Printf.sprintf "%s BETWEEN %d AND %d" (v ()) lo (lo + 20)
    | 4 -> Printf.sprintf "%s IS NOT NULL" (fq (ik ()).ik_name)
    | 5 ->
      (match s.str_key with
       | Some k -> Printf.sprintf "%s LIKE 'a%%'" (fq k)
       | None -> Printf.sprintf "1 = 1 AND %s >= 0" (v ()))
    | 6 ->
      let k = ik () in
      Printf.sprintf "%s IN (%d, %d, %d)" (fq k.ik_name) (R.int rng 3)
        (1 + R.int rng 3)
        (2 + R.int rng 3)
    | _ ->
      (match s.dims with
       | [] -> Printf.sprintf "%s >= %d" (v ()) (R.int rng 20)
       | dims ->
         let d = pick rng dims in
         Printf.sprintf "%s IN (SELECT %s FROM %s WHERE label <> 'L0')"
           (fq d.dim_key.ik_name) d.dim_key.ik_name d.dim_name)
  in
  let aggregate () =
    match R.int rng 6 with
    | 0 -> "COUNT(*)"
    | 1 -> Printf.sprintf "SUM(%s)" (v ())
    | 2 -> Printf.sprintf "MIN(%s)" (v ())
    | 3 -> Printf.sprintf "MAX(%s)" (fq (ik ()).ik_name)
    | 4 -> Printf.sprintf "AVG(%s)" (v ())
    | _ -> Printf.sprintf "COUNT(%s)" (v ())
  in
  let from =
    match join_dim with
    | None -> "fact"
    | Some d ->
      Printf.sprintf "fact JOIN %s ON fact.%s = %s.%s" d.dim_name
        d.dim_key.ik_name d.dim_name d.dim_key.ik_name
  in
  let where =
    if chance rng 1 2 then " WHERE " ^ predicate () else ""
  in
  if chance rng 1 2 then begin
    let key =
      match R.int rng 3 with
      | 0 -> fq (ik ()).ik_name
      | 1 ->
        (match s.str_key with Some k -> fq k | None -> fq (ik ()).ik_name)
      | _ -> Printf.sprintf "%s %% 3" (v ())
    in
    let having =
      if chance rng 1 3 then " HAVING COUNT(*) > 1" else ""
    in
    Printf.sprintf "SELECT %s AS k, %s AS x, %s AS y FROM %s%s GROUP BY %s%s"
      key (aggregate ()) (aggregate ()) from where key having
  end
  else begin
    let distinct = if chance rng 1 4 then "DISTINCT " else "" in
    Printf.sprintf "SELECT %s%s AS x, %s AS y FROM %s%s" distinct (scalar ())
      (scalar ()) from where
  end

(* --- the case generator --- *)

let case ?(max_steps = 30) ?(queries = 4) ?(with_view = true) ?cascade ~seed
    () : Case.t =
  let rng = R.make [| 0x6e67; seed |] in
  let spec = gen_schema rng in
  let schema = schema_sql spec @ index_sql ~seed spec in
  let setup = gen_setup rng spec in
  (* the cascade coin is flipped unconditionally so that, under the
     default [?cascade:None], the RNG stream — and therefore every
     statement — stays a pure function of the seed *)
  let coin = chance rng 1 3 in
  let views =
    if not with_view then []
    else begin
      let v1, out_cols = gen_view rng spec in
      let cascaded = match cascade with Some b -> b | None -> coin in
      if cascaded then [ v1; gen_view2 rng out_cols ] else [ v1 ]
    end
  in
  let workload = init_ordered max_steps (fun _ -> gen_step rng spec) in
  let queries = init_ordered queries (fun _ -> gen_query rng spec) in
  { Case.empty with
    seed; max_steps; schema; setup; views; workload; queries }
