(** Index probes shared by every path that reads a table through an ART
    (primary key or secondary index): the optimizer's index scans, point
    UPDATE/DELETE, the index nested-loop join and [DELETE ... USING].
    Probe values are turned into the key the indexed column stores, so an
    index probe matches exactly the rows a scan with [=] would. *)

type access =
  | Pk
  | Secondary of Table.index

type t = {
  table : Table.t;
  access : access;
  positions : int array;  (** the indexed columns, in index order *)
  types : Sql.Ast.typ array;  (** their declared types *)
}

val of_name : Table.t -> string -> t
(** [""] names the primary key. Raises {!Error.Sql_error} when the
    secondary index is gone. *)

val index_name : t -> string
(** [""] for the primary key. *)

val key_value : nullsafe:bool -> Sql.Ast.typ -> Value.t -> Value.t option
(** The value a column of the given type stores where it equals the
    probe, or [None] when none can: NULL under strict [=], a non-integral
    number probing an INTEGER column, a value of another kind. An
    integral FLOAT probing an INTEGER column becomes an INTEGER key, an
    INTEGER probing a FLOAT column a FLOAT key. Under NULL-safe equality
    NULL probes the NULL key. *)

val encode : t -> nullsafe:(int -> bool) -> Value.t array -> string option
(** The index key for probe values in index column order ([nullsafe i]
    for the [i]-th index column); [None] when no row can match. *)

val strict : int -> bool
(** Every column matched with plain [=]. *)

val slots : t -> string option -> int list
val rows : t -> string option -> Row.t list
(** The live slots / rows under an {!encode}d key ([None] = none). *)

val for_columns :
  exact:bool -> Table.t -> Schema.t -> Sql.Ast.expr list ->
  (t * int array) option
(** An index over the plain columns the expressions name, resolved in the
    given (query-qualified) table schema: the primary key first, then the
    secondary indexes. With [~exact:true] the index's column set must
    equal theirs; otherwise any subset will do. Also returns, for each
    index column, the position in the list of the expression supplying
    it. *)

val pinned_by_constants :
  Table.t -> Schema.t -> Sql.Ast.expr list ->
  (t * Sql.Ast.expr list * Sql.Ast.expr list) option
(** An index all of whose columns are pinned by [col = const] conjuncts
    (columns resolved in the given schema): the probe, the constant
    expressions in index column order, and the conjuncts consumed. *)
