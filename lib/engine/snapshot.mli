(** Database snapshots: [schema.sql] (CREATE TABLE / CREATE INDEX) plus one
    CSV per table in a directory. A snapshot of an IVM-enabled database
    restores with its view tables, delta tables and OpenIVM metadata
    intact; re-install views through [Openivm.Runner] to re-arm capture
    triggers. *)

val save : Database.t -> dir:string -> int
(** Write the whole catalog under [dir] (created if missing); returns the
    number of tables saved. *)

val load : dir:string -> Database.t
(** Load a snapshot into a fresh database (indexes rebuilt). Raises
    {!Error.Sql_error} when the directory holds no snapshot. *)

(** {1 In-memory table snapshots}

    Deep-copy capture/restore of a few named tables. No production path
    uses it: all-or-nothing writes go through the tables' undo log
    ({!Table.begin_undo}), which costs the rows changed rather than the
    table. It stays as the test oracle for that log (a rollback must
    leave exactly what a capture saw) and as a benchmark probe of what
    the copy would cost. *)

type mem

val capture : Database.t -> tables:string list -> mem
(** Deep-copy the current rows of [tables]. *)

val restore : Database.t -> mem -> unit
(** Truncate each captured table and reinsert its memoized rows (hooks
    disabled). Deferred trigger callbacks queued by the failed statement
    are discarded first — rollback leaves no ghost refreshes behind.
    Primary-key and ART secondary indexes are rebuilt along the way
    (truncate resets them, each reinsert re-indexes), so point lookups
    answer correctly immediately after a mid-batch rollback. *)
