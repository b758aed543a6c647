(** Growable array used for table storage, plus the typed columnar
    primitives ([Bitmap], [Sel], [Col], [Batch]) the vectorized executor
    ([Vexec]) is built from. Slots are mutable; deletion is by tombstone at
    the [Table] layer, so [Vec] itself never shifts slots and indexes stay
    valid. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

let ensure_capacity t needed =
  if needed > Array.length t.data then begin
    (* the [max 8] floor matters: from a zero-capacity array the doubling
       loop would never terminate (0 * 2 = 0) *)
    let cap = ref (max 8 (Array.length t.data)) in
    while !cap < needed do cap := !cap * 2 done;
    let fresh = Array.make !cap t.dummy in
    Array.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end

let push t v =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  t.len - 1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate: length out of bounds";
  Array.fill t.data n (t.len - n) t.dummy;
  t.len <- n

let clear t = truncate t 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list ~dummy xs =
  let t = create ~dummy () in
  List.iter (fun x -> ignore (push t x)) xs;
  t

(* --- validity bitmaps --- *)

module Bitmap = struct
  type t = { bits : Bytes.t; nbits : int }

  let create n v =
    if n < 0 then invalid_arg "Bitmap.create: negative length";
    { bits = Bytes.make ((n + 7) / 8) (if v then '\xff' else '\x00');
      nbits = n }

  let length t = t.nbits

  let get t i =
    if i < 0 || i >= t.nbits then invalid_arg "Bitmap.get: index out of bounds";
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set t i v =
    if i < 0 || i >= t.nbits then invalid_arg "Bitmap.set: index out of bounds";
    let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
    let mask = 1 lsl (i land 7) in
    let byte' = if v then byte lor mask else byte land lnot mask in
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte' land 0xff))

  let all_set t =
    let full = t.nbits / 8 in
    let rec bytes_ok i =
      i >= full || (Bytes.get t.bits i = '\xff' && bytes_ok (i + 1))
    in
    let tail_ok = ref true in
    for i = full * 8 to t.nbits - 1 do
      if not (get t i) then tail_ok := false
    done;
    bytes_ok 0 && !tail_ok

  let none_set t =
    let full = t.nbits / 8 in
    let rec bytes_ok i =
      i >= full || (Bytes.get t.bits i = '\x00' && bytes_ok (i + 1))
    in
    let tail_ok = ref true in
    for i = full * 8 to t.nbits - 1 do
      if get t i then tail_ok := false
    done;
    bytes_ok 0 && !tail_ok

  let count t =
    let n = ref 0 in
    for i = 0 to t.nbits - 1 do
      if get t i then incr n
    done;
    !n

  let logand a b =
    if a.nbits <> b.nbits then invalid_arg "Bitmap.logand: length mismatch";
    let bits = Bytes.copy a.bits in
    for i = 0 to Bytes.length bits - 1 do
      Bytes.unsafe_set bits i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get bits i)
            land Char.code (Bytes.unsafe_get b.bits i)))
    done;
    { bits; nbits = a.nbits }

  let gather t sel =
    let r = create (Array.length sel) true in
    Array.iteri (fun i j -> if not (get t j) then set r i false) sel;
    r
end

(* --- selection vectors --- *)

module Sel = struct
  type t = int array

  let length = Array.length
  let identity n = Array.init n (fun i -> i)

  (* [compose base inner] re-filters a view that is already a selection:
     entry [i] of the result is [base.(inner.(i))], i.e. [inner] indexes the
     logical (selected) order of [base]. *)
  let compose (base : t) (inner : t) : t = Array.map (fun i -> base.(i)) inner
end

(* --- typed column vectors --- *)

module Col = struct
  type data =
    | Ints of int array
    | Floats of float array
    | Bools of bool array
    | Strs of string array
    | Dates of int array        (** days since epoch, as in {!Value.Date} *)
    | Boxed of Value.t array    (** mixed / exotic columns; nulls inline *)

  type t = {
    data : data;
    valid : Bitmap.t option;
        (** [None] = every slot valid; [Boxed] never carries a bitmap *)
  }

  let length c =
    match c.data with
    | Ints a | Dates a -> Array.length a
    | Floats a -> Array.length a
    | Bools a -> Array.length a
    | Strs a -> Array.length a
    | Boxed a -> Array.length a

  let is_valid c i =
    match c.valid with
    | Some b -> Bitmap.get b i
    | None -> (match c.data with Boxed a -> a.(i) <> Value.Null | _ -> true)

  let value c i : Value.t =
    match c.data with
    | Boxed a -> a.(i)
    | _ when not (is_valid c i) -> Value.Null
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Bools a -> Value.Bool a.(i)
    | Strs a -> Value.Str a.(i)
    | Dates a -> Value.Date a.(i)

  (* Detect the kind from the first non-null; any mismatch demotes the whole
     column to [Boxed] (Int/Float mixes stay boxed so that typed columns can
     be trusted by encoded-key fast paths, where Int and Float hash
     differently than Value.equal would compare). *)
  let of_values (vs : Value.t array) : t =
    let n = Array.length vs in
    let rec first i =
      if i >= n then Value.Null
      else match vs.(i) with Value.Null -> first (i + 1) | v -> v
    in
    match first 0 with
    | Value.Null -> { data = Boxed vs; valid = None }
    | probe ->
      let valid = Bitmap.create n true in
      (try
         let data =
           match probe with
           | Value.Int _ ->
             let a = Array.make n 0 in
             for i = 0 to n - 1 do
               match vs.(i) with
               | Value.Int x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Ints a
           | Value.Float _ ->
             let a = Array.make n 0.0 in
             for i = 0 to n - 1 do
               match vs.(i) with
               | Value.Float x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Floats a
           | Value.Bool _ ->
             let a = Array.make n false in
             for i = 0 to n - 1 do
               match vs.(i) with
               | Value.Bool x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Bools a
           | Value.Str _ ->
             let a = Array.make n "" in
             for i = 0 to n - 1 do
               match vs.(i) with
               | Value.Str x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Strs a
           | Value.Date _ ->
             let a = Array.make n 0 in
             for i = 0 to n - 1 do
               match vs.(i) with
               | Value.Date x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Dates a
           | Value.Null -> assert false
         in
         { data; valid = (if Bitmap.all_set valid then None else Some valid) }
       with Exit -> { data = Boxed vs; valid = None })

  let gather (c : t) (sel : Sel.t) : t =
    let valid = Option.map (fun b -> Bitmap.gather b sel) c.valid in
    let valid =
      match valid with
      | Some b when Bitmap.all_set b -> None
      | v -> v
    in
    match c.data with
    | Ints a -> { data = Ints (Array.map (fun i -> a.(i)) sel); valid }
    | Floats a -> { data = Floats (Array.map (fun i -> a.(i)) sel); valid }
    | Bools a -> { data = Bools (Array.map (fun i -> a.(i)) sel); valid }
    | Strs a -> { data = Strs (Array.map (fun i -> a.(i)) sel); valid }
    | Dates a -> { data = Dates (Array.map (fun i -> a.(i)) sel); valid }
    | Boxed a -> { data = Boxed (Array.map (fun i -> a.(i)) sel); valid = None }

  let to_values (c : t) : Value.t array =
    match c.data with
    | Boxed a -> a
    | _ -> Array.init (length c) (fun i -> value c i)
end

(* --- batches: a fixed-width chunk of columns plus a selection vector --- *)

module Batch = struct
  let batch_size = 2048

  type t = {
    cols : Col.t array;
    sel : Sel.t option;  (** logical subset/order of rows; [None] = all *)
    nrows : int;         (** physical rows held by every column *)
  }

  let length b = match b.sel with Some s -> Array.length s | None -> b.nrows

  (* Apply the selection vector: one gather per column, after which
     expression kernels can run over dense arrays. *)
  let flatten b =
    match b.sel with
    | None -> b
    | Some sel ->
      { cols = Array.map (fun c -> Col.gather c sel) b.cols;
        sel = None;
        nrows = Array.length sel }

  (* Single-pass column extraction: probe the first non-null for the kind,
     then read [rows.(i).(j)] straight into the typed array — same demotion
     rules as {!Col.of_values} without the intermediate per-column copy. *)
  let column_of_rows (rows : Row.t array) j : Col.t =
    let n = Array.length rows in
    let boxed () =
      { Col.data = Col.Boxed (Array.init n (fun i -> rows.(i).(j)));
        valid = None }
    in
    let rec first i =
      if i >= n then Value.Null
      else match rows.(i).(j) with Value.Null -> first (i + 1) | v -> v
    in
    match first 0 with
    | Value.Null -> boxed ()
    | probe ->
      let valid = Bitmap.create n true in
      (try
         let data =
           match probe with
           | Value.Int _ ->
             let a = Array.make n 0 in
             for i = 0 to n - 1 do
               match rows.(i).(j) with
               | Value.Int x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Col.Ints a
           | Value.Float _ ->
             let a = Array.make n 0.0 in
             for i = 0 to n - 1 do
               match rows.(i).(j) with
               | Value.Float x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Col.Floats a
           | Value.Bool _ ->
             let a = Array.make n false in
             for i = 0 to n - 1 do
               match rows.(i).(j) with
               | Value.Bool x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Col.Bools a
           | Value.Str _ ->
             let a = Array.make n "" in
             for i = 0 to n - 1 do
               match rows.(i).(j) with
               | Value.Str x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Col.Strs a
           | Value.Date _ ->
             let a = Array.make n 0 in
             for i = 0 to n - 1 do
               match rows.(i).(j) with
               | Value.Date x -> a.(i) <- x
               | Value.Null -> Bitmap.set valid i false
               | _ -> raise Exit
             done;
             Col.Dates a
           | Value.Null -> assert false
         in
         { Col.data;
           valid = (if Bitmap.all_set valid then None else Some valid) }
       with Exit -> boxed ())

  let of_rows (rows : Row.t array) ~(width : int) : t =
    { cols = Array.init width (column_of_rows rows);
      sel = None;
      nrows = Array.length rows }

  let row b i : Row.t =
    let i = match b.sel with Some s -> s.(i) | None -> i in
    Array.map (fun c -> Col.value c i) b.cols

  (* Columnar unbatchify: fill the row arrays one column at a time with a
     typed loop per column, instead of dispatching on the column kind once
     per lane the way [row] does. This sits on the INSERT ... SELECT
     boundary, where every produced batch is boxed back into table rows. *)
  let to_rows b : Row.t array =
    let b = flatten b in
    let n = b.nrows in
    let width = Array.length b.cols in
    let rows = Array.init n (fun _ -> Array.make width Value.Null) in
    for j = 0 to width - 1 do
      let c = b.cols.(j) in
      let fill : 'a. 'a array -> ('a -> Value.t) -> unit =
        fun a box ->
          match c.Col.valid with
          | None -> for i = 0 to n - 1 do rows.(i).(j) <- box a.(i) done
          | Some bm ->
            for i = 0 to n - 1 do
              if Bitmap.get bm i then rows.(i).(j) <- box a.(i)
            done
      in
      match c.Col.data with
      | Col.Ints a -> fill a (fun x -> Value.Int x)
      | Col.Floats a -> fill a (fun x -> Value.Float x)
      | Col.Bools a -> fill a (fun x -> Value.Bool x)
      | Col.Strs a -> fill a (fun x -> Value.Str x)
      | Col.Dates a -> fill a (fun x -> Value.Date x)
      | Col.Boxed a ->
        (* boxed lanes keep Null inline ([Col.value] ignores the bitmap) *)
        for i = 0 to n - 1 do rows.(i).(j) <- a.(i) done
    done;
    rows
end
