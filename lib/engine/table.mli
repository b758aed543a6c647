(** Heap table storage: rows in tombstoned slots of a growable vector, an
    optional ART primary-key index mapping encoded keys to slots, and
    secondary ART indexes. Compaction rebuilds storage and indexes when
    more than half the slots are dead. *)

type index = {
  index_name : string;
  key_positions : int array;
  unique : bool;
  mutable art : int list Art.t;  (** encoded key -> live slots *)
}

type undo_entry

type t = {
  name : string;
  schema : Schema.t;
  primary_key : int array;  (** column positions; empty = no PK *)
  mutable slots : Row.t Vec.t;
      (** rows by slot; a tombstoned slot holds a private sentinel, so
          read slots through {!row_at} or the iterators *)
  mutable live : int;
  mutable pk_index : int Art.t option;
  mutable pk_stale : bool;
      (** set by bulk appends ({!insert_many}); [pk_index] lags the slots
          and is rebuilt in one sorted bulk pass before the next PK read *)
  mutable secondary : index list;
  mutable undo : undo_entry list option;
      (** the open undo log, newest entry first; see {!begin_undo} *)
}

val create : name:string -> schema:Schema.t -> primary_key:int array -> t

val arity : t -> int
val row_count : t -> int

val key_of_row : int array -> Row.t -> string
val pk_key : t -> Row.t -> string

val iter_rows : (Row.t -> unit) -> t -> unit
val iter_slots : (int -> Row.t -> unit) -> t -> unit
val to_rows : t -> Row.t list

val row_at : t -> int -> Row.t option
(** The live row in a slot; [None] for a tombstoned one. *)


val find_secondary : t -> string -> index option
val secondary_on : t -> int array -> index option
val create_index :
  t -> index_name:string -> key_positions:int array -> unique:bool -> index
val drop_index : t -> index_name:string -> unit

val compact : t -> unit
(** Raises {!Error.Sql_error} while an undo log is open (compaction
    renumbers slots); automatic compaction is deferred instead. *)

val insert : t -> Row.t -> unit
(** Raises {!Error.Sql_error} on arity mismatch or PK violation. *)

val insert_many : ?distinct_keys:bool -> t -> Row.t list -> unit
(** Bulk append, semantically [List.iter (insert t)] (rows before a
    duplicate stay inserted; the duplicate raises). Into an empty keyed
    table the PK index is not maintained per row: duplicates are checked
    through a hashtable and the index is marked stale, rebuilt lazily in
    one sorted bulk pass on the next PK read.

    [~distinct_keys:true] (default false) promises that [rows] carry
    pairwise-distinct primary keys, skipping the duplicate check and its
    key encoding; the promise is verified by the sorted rebuild. *)

type upsert_outcome =
  | Inserted
  | Replaced of Row.t  (** the displaced row *)

val upsert : t -> Row.t -> upsert_outcome
(** INSERT OR REPLACE through the PK index; requires a primary key. *)

val insert_ignore : t -> Row.t -> bool
(** ON CONFLICT DO NOTHING; returns whether the row was inserted. *)

val delete_slot : t -> int -> Row.t option
val delete_where : t -> (Row.t -> bool) -> Row.t list
val update_where : t -> (Row.t -> bool) -> (Row.t -> Row.t) -> (Row.t * Row.t) list
val truncate : t -> int

val warm_indexes : t -> unit
(** Force deferred (lazy) index maintenance — the stale-PK bulk rebuild —
    to run now, so subsequent reads are mutation-free. The parallel
    refresh driver calls this before sharing a table read-only across
    domains. *)

val index_lookup : t -> index -> string -> Row.t list
val index_slots : t -> index -> string -> int list
val pk_slot : t -> string -> int option
val pk_lookup : t -> string -> Row.t option

(** {1 Undo log}

    All-or-nothing writes across several tables without copying them.
    While a table's log is open every mutation above records its exact
    inverse at slot granularity: an append its slot, a delete the slot
    and its row, an in-place replace the old row, a truncate the whole
    old slot vector and indexes. Automatic compaction (which renumbers
    slots) is deferred until the log closes. With no log open the only
    cost is one [None] check per mutation. Index DDL is refused while a
    log is open. *)

val begin_undo : t list -> unit
(** Open a log on each table. Raises {!Error.Sql_error} if one is
    already open. *)

val commit_undo : t list -> unit
(** Close the logs, keeping every change, and run any deferred
    compaction. *)

val rollback_undo : t list -> int
(** Undo every logged change newest first, fixing the primary-key and
    secondary index entries of the touched slots only, close the logs
    and run any deferred compaction. Returns the number of log entries
    replayed: the cost is proportional to the rows changed, not to the
    tables' size. *)
