(** The OLTP side of the cross-system pipeline (the paper's PostgreSQL).

    A second engine instance configured with a per-statement latency that
    models the client/server round trip an embedded engine does not pay,
    plus the paper's user-configured capture triggers: every change to a
    registered base table is appended to an OLTP-side delta table with the
    boolean multiplicity.

    Captured rows form an *outbox*: {!begin_batch} snapshots the pending
    rows under a fresh per-source sequence number but leaves them in the
    delta table; only {!ack} — called once the OLAP side has durably
    applied the batch — removes them. A lost or corrupted transmission
    therefore costs nothing: the next [begin_batch] returns the same
    batch for retry, and rows captured while a batch is in flight queue
    behind it. *)

open Openivm_engine

type capture = {
  base : string;
  delta : string;
  mutable rows_captured : int;
  mutable next_seq : int;                    (** next sequence to assign *)
  mutable inflight : (int * Row.t list) option;
      (** snapshotted batch awaiting acknowledgement; its rows are still
          the head of the delta table *)
}

type t = {
  db : Database.t;
  multiplicity_column : string;
  mutable captures : capture list;
}

(** [latency] — seconds added per statement (default models a local
    PostgreSQL round trip). *)
let create ?(name = "postgres") ?(latency = 20e-6)
    ?(multiplicity_column = "_ivm_multiplicity") () : t =
  let db = Database.create ~name () in
  Database.set_statement_latency db latency;
  { db; multiplicity_column; captures = [] }

let db t = t.db
let exec t sql = Database.exec t.db sql
let query t sql = Database.query t.db sql

let capture_of t base =
  match List.find_opt (fun c -> String.equal c.base base) t.captures with
  | Some c -> c
  | None -> Error.fail "no delta capture registered on table %S" base

(** Register delta capture on [base] into [delta] (created if missing) —
    the engine-side equivalent of installing the generated PostgreSQL
    trigger DDL. Registering the same base twice would install two
    triggers and double-capture every change, so it is an error. *)
let register_capture t ~(base : string) ~(delta : string) : unit =
  if List.exists (fun c -> String.equal c.base base) t.captures then
    Error.fail "delta capture already registered on table %S" base;
  let catalog = Database.catalog t.db in
  let base_tbl = Catalog.find_table catalog base in
  if not (Catalog.table_exists catalog delta) then begin
    let delta_schema =
      List.map (fun c -> { c with Schema.table = Some delta }) base_tbl.Table.schema
      @ [ Schema.column ~table:delta t.multiplicity_column Openivm_sql.Ast.T_bool ]
    in
    Catalog.add_table catalog
      (Table.create ~name:delta ~schema:delta_schema ~primary_key:[||])
  end;
  let cap = { base; delta; rows_captured = 0; next_seq = 1; inflight = None } in
  t.captures <- cap :: t.captures;
  Trigger.register (Database.triggers t.db) ~table:base
    ~name:("openivm_capture_" ^ base ^ "_" ^ delta)
    (fun change ->
       let delta_tbl = Catalog.find_table catalog delta in
       Trigger.without_hooks (Database.triggers t.db) (fun () ->
           let emit mult row =
             Table.insert delta_tbl (Array.append row [| Value.Bool mult |]);
             cap.rows_captured <- cap.rows_captured + 1
           in
           List.iter (emit false) change.Trigger.deleted;
           List.iter (emit true) change.Trigger.inserted))

let delta_table_of t base =
  let cap = capture_of t base in
  Catalog.find_table (Database.catalog t.db) cap.delta

(** The unacknowledged outbox batch for [base], snapshotting pending rows
    under a fresh sequence number if none is in flight. Rows stay in the
    delta table until {!ack}; repeated calls return the same batch until
    then (the retry/replay path). [None] = nothing to ship. *)
let begin_batch t ~(base : string) : (int * Row.t list) option =
  let cap = capture_of t base in
  match cap.inflight with
  | Some _ as b -> b
  | None ->
    let rows = Table.to_rows (delta_table_of t base) in
    if rows = [] then None
    else begin
      let seq = cap.next_seq in
      cap.next_seq <- seq + 1;
      cap.inflight <- Some (seq, rows);
      cap.inflight
    end

let inflight_seq t ~(base : string) : int option =
  Option.map fst (capture_of t base).inflight

(** Acknowledge batch [seq]: remove exactly its rows (the oldest captured)
    from the delta table and clear the in-flight slot. Idempotent — acks
    for already-acknowledged sequence numbers (duplicate deliveries) are
    no-ops. *)
let ack t ~(base : string) ~(seq : int) : unit =
  let cap = capture_of t base in
  match cap.inflight with
  | Some (s, rows) when s = seq ->
    (* the batch is the oldest [n] live rows, in slot order; deleting them
       through [delete_where] also compacts the acknowledged tombstones,
       which every later [begin_batch] would otherwise scan *)
    let n = List.length rows in
    let k = ref 0 in
    ignore
      (Table.delete_where (delta_table_of t base) (fun _ ->
           incr k;
           !k <= n));
    cap.inflight <- None
  | _ -> ()

(** Abandon the outbox for [base] — in-flight batch forgotten, captured
    rows discarded (they are covered by the base table a full resync
    copies). Returns the watermark the OLAP side must record so the next
    batch ([next_seq]) arrives as exactly watermark + 1. *)
let reset_outbox t ~(base : string) : int =
  let cap = capture_of t base in
  cap.inflight <- None;
  ignore (Table.truncate (delta_table_of t base));
  cap.next_seq - 1

(** Drain the delta rows captured for [base] (returns them and clears the
    OLTP-side delta table). The legacy fire-and-forget path: rows are gone
    whether or not the caller lands them anywhere — prefer
    {!begin_batch}/{!ack}. *)
let drain t ~(base : string) : Row.t list =
  let rec go acc =
    match begin_batch t ~base with
    | None -> List.concat (List.rev acc)
    | Some (seq, rows) ->
      ack t ~base ~seq;
      go (rows :: acc)
  in
  go []

let pending t ~base =
  let cap = capture_of t base in
  Table.row_count (Catalog.find_table (Database.catalog t.db) cap.delta)
