(** Database snapshots: save a catalog to a directory (one [schema.sql]
    with CREATE TABLE / CREATE INDEX statements plus one CSV per table) and
    load it back. Indexes are rebuilt on load. View definitions and the
    OpenIVM metadata tables travel like any other content, so a snapshot
    of an IVM-enabled database restores with its delta tables and
    materialized views intact (re-[install]ing views re-arms capture). *)

let schema_file = "schema.sql"

let table_ddl (tbl : Table.t) : Sql.Ast.stmt =
  let columns =
    List.map
      (fun c ->
         { Sql.Ast.col_name = c.Schema.name;
           col_type = c.Schema.typ;
           col_not_null = c.Schema.not_null;
           col_primary_key = false })
      tbl.Table.schema
  in
  let primary_key =
    List.map
      (fun i -> (List.nth tbl.Table.schema i).Schema.name)
      (Array.to_list tbl.Table.primary_key)
  in
  Sql.Ast.Create_table
    { table = tbl.Table.name; columns; primary_key; if_not_exists = false }

let index_ddl (tbl : Table.t) : Sql.Ast.stmt list =
  List.rev_map
    (fun ix ->
       Sql.Ast.Create_index
         { index = ix.Table.index_name;
           table = tbl.Table.name;
           columns =
             List.map
               (fun i -> (List.nth tbl.Table.schema i).Schema.name)
               (Array.to_list ix.Table.key_positions);
           unique = ix.Table.unique })
    tbl.Table.secondary

(** Write the whole database under [dir] (created if missing). Returns the
    number of tables saved. *)
let save (db : Database.t) ~(dir : string) : int =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let catalog = Database.catalog db in
  let names = Catalog.table_names catalog in
  let ddl =
    List.concat_map
      (fun name ->
         let tbl = Catalog.find_table catalog name in
         table_ddl tbl :: index_ddl tbl)
      names
  in
  let oc = open_out (Filename.concat dir schema_file) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc (Sql.Pretty.script_to_sql ddl));
  List.iter
    (fun name ->
       ignore
         (Csv.export db
            ~query:(Printf.sprintf "SELECT * FROM %s" name)
            ~path:(Filename.concat dir (name ^ ".csv"))))
    names;
  List.length names

(* --- in-memory table snapshots (undo-log test oracle, bench probe) --- *)

type mem = (string * Row.t list) list

(** Capture the current rows of [tables] so a failed multi-table write can
    be rolled back all-or-nothing. Row arrays are copied: later in-place
    updates cannot leak into the memo. *)
let capture (db : Database.t) ~(tables : string list) : mem =
  let catalog = Database.catalog db in
  List.map
    (fun name ->
       let tbl = Catalog.find_table catalog name in
       (name, List.map Array.copy (Table.to_rows tbl)))
    tables

(** Restore every captured table to its memoized contents (truncate +
    reinsert, hooks disabled — rollback must not re-trigger capture).
    Also discards any deferred trigger callbacks: a rollback means the
    surrounding statement failed, and its queued refreshes must not fire
    later over the restored state (ghost deltas). *)
let restore (db : Database.t) (memo : mem) : unit =
  let catalog = Database.catalog db in
  Trigger.clear_deferred (Database.triggers db);
  Trigger.without_hooks (Database.triggers db) (fun () ->
      List.iter
        (fun (name, rows) ->
           let tbl = Catalog.find_table catalog name in
           ignore (Table.truncate tbl);
           List.iter (fun row -> Table.insert tbl (Array.copy row)) rows)
        memo)

(** Load a snapshot into a fresh database. Capture triggers are not
    restored — reinstall materialized views through [Openivm.Runner] to
    re-arm IVM. *)
let load ~(dir : string) : Database.t =
  let db = Database.create () in
  let schema_path = Filename.concat dir schema_file in
  if not (Sys.file_exists schema_path) then
    Error.fail "snapshot: %s not found in %S" schema_file dir;
  let ic = open_in schema_path in
  let ddl =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  ignore (Database.exec_script db ddl);
  List.iter
    (fun name ->
       let path = Filename.concat dir (name ^ ".csv") in
       if Sys.file_exists path then
         Trigger.without_hooks (Database.triggers db) (fun () ->
             ignore (Csv.import db ~table:name ~path)))
    (Catalog.table_names (Database.catalog db));
  db
