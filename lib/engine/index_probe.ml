(** Index probes shared by every access path that reads a table through
    an ART: the optimizer's index scans, point UPDATE/DELETE, the index
    nested-loop join and [DELETE ... USING]. One place decides which
    index answers a set of columns and what key a probe value becomes,
    so every path agrees with a scan on what [=] matches. *)

type access =
  | Pk
  | Secondary of Table.index

type t = {
  table : Table.t;
  access : access;
  positions : int array;  (** the indexed columns, in index order *)
  types : Sql.Ast.typ array;  (** their declared types *)
}

let make (tbl : Table.t) access positions =
  let cols = Array.of_list tbl.Table.schema in
  { table = tbl; access; positions;
    types = Array.map (fun i -> cols.(i).Schema.typ) positions }

(** The primary key, then each secondary index in creation order: the
    first whose column positions satisfy [fits]. *)
let find (tbl : Table.t) ~(fits : int array -> bool) : t option =
  let ok ps = Array.length ps > 0 && fits ps in
  if ok tbl.Table.primary_key then Some (make tbl Pk tbl.Table.primary_key)
  else
    List.find_map
      (fun ix ->
         if ok ix.Table.key_positions then
           Some (make tbl (Secondary ix) ix.Table.key_positions)
         else None)
      tbl.Table.secondary

let of_name (tbl : Table.t) (index_name : string) : t =
  if index_name = "" then make tbl Pk tbl.Table.primary_key
  else
    match Table.find_secondary tbl index_name with
    | Some ix -> make tbl (Secondary ix) ix.Table.key_positions
    | None ->
      Error.fail "index %S vanished from table %S" index_name tbl.Table.name

let index_name t =
  match t.access with Pk -> "" | Secondary ix -> ix.Table.index_name

(** The value a column of type [typ] stores where it equals [v], or
    [None] when no stored value can: NULL under strict [=], a
    non-integral number probing an INTEGER column, a value of another
    kind. Under [nullsafe] equality NULL probes the NULL key. *)
let key_value ~nullsafe (typ : Sql.Ast.typ) (v : Value.t) : Value.t option =
  match typ, v with
  | _, Value.Null -> if nullsafe then Some v else None
  | Sql.Ast.T_int, Value.Int _
  | Sql.Ast.T_float, Value.Float _
  | Sql.Ast.T_text, Value.Str _
  | Sql.Ast.T_bool, Value.Bool _
  | Sql.Ast.T_date, Value.Date _ -> Some v
  | Sql.Ast.T_int, Value.Float f ->
    if Float.is_integer f && Float.abs f < 0x1p62 then
      Some (Value.Int (int_of_float f))
    else None
  | Sql.Ast.T_float, Value.Int i -> Some (Value.Float (float_of_int i))
  | _ -> None

(** The encoded index key for probe values given in index column order;
    [nullsafe i] says whether column [i] is matched NULL-safely. [None]
    when the probe can match no row. *)
let encode t ~(nullsafe : int -> bool) (vals : Value.t array) : string option =
  let exception No_match in
  match
    Array.mapi
      (fun i v ->
         match key_value ~nullsafe:(nullsafe i) t.types.(i) v with
         | Some k -> k
         | None -> raise_notrace No_match)
      vals
  with
  | keys -> Some (Value.encode_key keys)
  | exception No_match -> None

let strict (_ : int) = false

let slots t (key : string option) : int list =
  match key, t.access with
  | None, _ -> []
  | Some k, Pk -> Option.to_list (Table.pk_slot t.table k)
  | Some k, Secondary ix -> Table.index_slots t.table ix k

let rows t (key : string option) : Row.t list =
  match key, t.access with
  | None, _ -> []
  | Some k, Pk -> Option.to_list (Table.pk_lookup t.table k)
  | Some k, Secondary ix -> Table.index_lookup t.table ix k

(** An index over the plain columns [exprs] name in [schema] (the
    table's schema, qualified as the query sees it): with [~exact] its
    column set must equal theirs, otherwise it may be any subset. Returns
    the probe and, for each index column, the position in [exprs] of the
    expression that supplies it. *)
let for_columns ~exact (tbl : Table.t) (schema : Schema.t)
    (exprs : Sql.Ast.expr list) : (t * int array) option =
  match exprs with
  | [] -> None
  | _ ->
    let positions =
      try
        Some
          (Array.of_list
             (List.map
                (function
                  | Sql.Ast.Column (qualifier, name) when name <> "*" ->
                    fst (Schema.find schema ~qualifier ~name)
                  | _ -> raise Exit)
                exprs))
      with Exit | Error.Sql_error _ -> None
    in
    Option.bind positions (fun pos ->
        let sorted a = List.sort compare (Array.to_list a) in
        let fits ix_pos =
          if exact then sorted ix_pos = sorted pos
          else Array.for_all (fun p -> Array.mem p pos) ix_pos
        in
        Option.map
          (fun probe ->
             let supplier p =
               let rec go j = if pos.(j) = p then j else go (j + 1) in
               go 0
             in
             (probe, Array.map supplier probe.positions))
          (find tbl ~fits))

(** An index every column of which some [col = const] conjunct of [cs]
    pins (columns resolved against [schema]). Returns the probe, the
    constants in index order, and the conjuncts consumed. *)
let pinned_by_constants (tbl : Table.t) (schema : Schema.t)
    (cs : Sql.Ast.expr list) :
  (t * Sql.Ast.expr list * Sql.Ast.expr list) option =
  let pinned = Hashtbl.create 8 in
  List.iter
    (fun c ->
       match c with
       | Sql.Ast.Binary (Sql.Ast.Eq, a, b) ->
         let try_pin col const =
           match col with
           | Sql.Ast.Column (qualifier, name)
             when name <> "*" && Openivm_sql.Analysis.is_constant const ->
             (match Schema.find_opt schema ~qualifier ~name with
              | Some (i, _) when not (Hashtbl.mem pinned i) ->
                Hashtbl.replace pinned i (const, c)
              | _ -> ()
              | exception Error.Sql_error _ -> ())
           | _ -> ()
         in
         try_pin a b;
         try_pin b a
       | _ -> ())
    cs;
  Option.map
    (fun probe ->
       let pins = Array.map (Hashtbl.find pinned) probe.positions in
       ( probe,
         Array.to_list (Array.map fst pins),
         Array.to_list (Array.map snd pins) ))
    (find tbl ~fits:(Array.for_all (Hashtbl.mem pinned)))
