(** Growable array used for table storage, plus the typed columnar
    primitives the vectorized executor ([Vexec]) is built from. Slots are
    mutable and never shift, so index structures that store slot numbers
    stay valid. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] defaults to 8. A zero capacity is legal; growth starts from
    the 8-element floor. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> int
(** Returns the new element's slot. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops every element from slot [n] on. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t

(** Validity bitmap over a column: bit set = slot holds a value. *)
module Bitmap : sig
  type t

  val create : int -> bool -> t
  (** [create n v]: [n] bits, all initialised to [v]. *)

  val length : t -> int
  val get : t -> int -> bool
  val set : t -> int -> bool -> unit
  val all_set : t -> bool
  val none_set : t -> bool
  val count : t -> int
  val logand : t -> t -> t
  val gather : t -> int array -> t
end

(** Selection vectors: row indexes into a batch, in logical order. *)
module Sel : sig
  type t = int array

  val length : t -> int
  val identity : int -> t

  val compose : t -> t -> t
  (** [compose base inner] re-filters an already-selected view: entry [i]
      of the result is [base.(inner.(i))]. *)
end

(** Typed column vectors with validity bitmaps; mixed or exotic columns
    fall back to a boxed [Value.t array]. *)
module Col : sig
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

  val length : t -> int
  val is_valid : t -> int -> bool
  val value : t -> int -> Value.t

  val of_values : Value.t array -> t
  (** Kind-detects from the first non-null; demotes to [Boxed] on any
      mismatch (including Int/Float mixes). Takes ownership of the array. *)

  val gather : t -> Sel.t -> t
  val to_values : t -> Value.t array
end

(** A batch: a fixed-width chunk of columns plus a selection vector.
    Filters narrow [sel] without copying column data; the next
    materialising operator applies it with {!Batch.flatten}. *)
module Batch : sig
  val batch_size : int

  type t = {
    cols : Col.t array;
    sel : Sel.t option;  (** logical subset/order of rows; [None] = all *)
    nrows : int;         (** physical rows held by every column *)
  }

  val length : t -> int
  val flatten : t -> t

  val column_of_rows : Row.t array -> int -> Col.t
  (** Column [j] of a row set, extracted in one pass with the same
      kind-probe/demotion rules as {!Col.of_values}. *)

  val of_rows : Row.t array -> width:int -> t
  val row : t -> int -> Row.t
  val to_rows : t -> Row.t array
end
