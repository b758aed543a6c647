(** The tables' slot-level undo log. A seeded random DML sequence runs
    under an open log on a keyed and an unkeyed, secondary-indexed table;
    rolled back, the rows must equal a {!Snapshot.capture} taken before
    the sequence and every primary-key and secondary-index lookup must
    answer as before. Committed, the same sequence must leave exactly
    what it leaves with no log open. *)

open Openivm_engine

let schema =
  [ "CREATE TABLE k(id INTEGER PRIMARY KEY, grp VARCHAR, v INTEGER)";
    "CREATE INDEX idx_k_grp ON k(grp)";
    "CREATE TABLE u(grp VARCHAR, v INTEGER)";
    "CREATE INDEX idx_u_grp ON u(grp)" ]

let groups = [ "g0"; "g1"; "g2"; "g3"; "g4"; "moved" ]
let seed_rows = 300

(* every id a sequence can produce: 40 steps append at most 20 each *)
let id_space = seed_rows + 1_000

let table db name = Catalog.find_table (Database.catalog db) name
let tables db = [ table db "k"; table db "u" ]

(* Row literals for k: [n] fresh ids from [next_id], random group/value. *)
let k_rows st next_id n =
  String.concat ", "
    (List.init n (fun _ ->
         let id = !next_id in
         incr next_id;
         Printf.sprintf "(%d, 'g%d', %d)" id (Random.State.int st 5)
           (Random.State.int st 1000)))

let u_rows st n =
  String.concat ", "
    (List.init n (fun _ ->
         Printf.sprintf "('g%d', %d)" (Random.State.int st 5)
           (Random.State.int st 1000)))

(* One random step: INSERT (sometimes hitting a duplicate key part-way),
   UPSERT, UPDATE moving primary keys, point UPDATE/DELETE, a DELETE
   large enough to trigger compaction, TRUNCATE, and bulk appends into an
   empty keyed table, both through SQL and through [Table.insert_many]. *)
let random_step db st next_id =
  let r = Random.State.int st in
  let sql s = try ignore (Database.exec db s) with Error.Sql_error _ -> () in
  match r 13 with
  | 0 | 1 ->
    let fresh = k_rows st next_id (1 + r 4) in
    if r 3 = 0 then
      sql
        (Printf.sprintf "INSERT INTO k VALUES %s, (%d, 'g0', 0)" fresh
           (r !next_id))
    else sql ("INSERT INTO k VALUES " ^ fresh)
  | 2 ->
    sql
      (Printf.sprintf "INSERT OR REPLACE INTO k VALUES (%d, 'g%d', %d)"
         (r !next_id) (r 5) (r 1000))
  | 3 ->
    (* +1 collides part-way on dense ids; +100000 never does *)
    sql
      (Printf.sprintf "UPDATE k SET id = id + %d WHERE grp = 'g%d'"
         (if r 2 = 0 then 1 else 100_000) (r 5))
  | 4 ->
    sql
      (Printf.sprintf "UPDATE k SET v = v + 1, grp = 'moved' WHERE id = %d"
         (r !next_id))
  | 5 -> sql (Printf.sprintf "DELETE FROM k WHERE v < %d" (600 + r 400))
  | 6 -> sql (Printf.sprintf "DELETE FROM k WHERE id = %d" (r !next_id))
  | 7 ->
    (* empty the table by truncation or by row deletes, then bulk-load *)
    sql (if r 2 = 0 then "TRUNCATE k" else "DELETE FROM k WHERE v >= 0");
    sql ("INSERT INTO k VALUES " ^ k_rows st next_id (1 + r 20))
  | 8 ->
    let k = table db "k" in
    ignore (Table.truncate k);
    let rows =
      List.init (1 + r 20) (fun _ ->
          let id = !next_id in
          incr next_id;
          [| Value.Int id; Value.Str (Printf.sprintf "g%d" (r 5));
             Value.Int (r 1000) |])
    in
    Table.insert_many ~distinct_keys:(r 2 = 0) k rows
  | 9 -> sql ("INSERT INTO u VALUES " ^ u_rows st (1 + r 6))
  | 10 -> sql (Printf.sprintf "DELETE FROM u WHERE grp = 'g%d'" (r 5))
  | 11 ->
    sql
      (Printf.sprintf "UPDATE u SET grp = 'moved' WHERE v < %d" (r 500))
  | _ ->
    if r 2 = 0 then sql "TRUNCATE u"
    else sql (Printf.sprintf "DELETE FROM u WHERE v < %d" (700 + r 300))

(* A table with history: bulk-loaded (stale primary key), tombstoned by
   point deletes that never compact, and on odd seeds PK-read once so the
   log also opens over a fresh primary-key index. *)
let seeded_db seed =
  let st = Random.State.make [| seed |] in
  let db = Util.db_with schema in
  let next_id = ref 0 in
  Util.exec db ("INSERT INTO k VALUES " ^ k_rows st next_id seed_rows);
  Util.exec db ("INSERT INTO u VALUES " ^ u_rows st seed_rows);
  for _ = 1 to 20 do
    Util.exec db
      (Printf.sprintf "DELETE FROM u WHERE v = %d" (Random.State.int st 1000))
  done;
  if seed mod 2 = 1 then
    Util.exec db
      (Printf.sprintf "DELETE FROM k WHERE id = %d"
         (Random.State.int st seed_rows));
  (db, st, next_id)

(* Every index answer the test compares: a primary-key lookup for each id
   the sequence could have produced, and the sorted secondary lookups
   for every group key on both tables. *)
let probe db =
  let k = table db "k" and u = table db "u" in
  let pk id =
    Option.map Row.to_string
      (Table.pk_lookup k (Table.key_of_row [| 0 |] [| Value.Int id |]))
  in
  let ids =
    List.concat_map
      (fun base -> List.init id_space (fun i -> base + i))
      [ 0; 100_000; 200_000 ]
  in
  let secondary tbl name =
    let ix = Option.get (Table.find_secondary tbl name) in
    List.map
      (fun g ->
         let key = Table.key_of_row [| 0 |] [| Value.Str g |] in
         List.sort compare
           (List.map Row.to_string (Table.index_lookup tbl ix key)))
      groups
  in
  (List.map pk ids, secondary k "idx_k_grp", secondary u "idx_u_grp")

let sorted_contents db =
  (Util.sorted_rows db "SELECT * FROM k", Util.sorted_rows db "SELECT * FROM u")

let rollback_restores seed () =
  let db, st, next_id = seeded_db seed in
  let before = Snapshot.capture db ~tables:[ "k"; "u" ] in
  let rows_before = sorted_contents db in
  let stale_before = (table db "k").Table.pk_stale in
  let probe_before = probe db in
  Table.begin_undo (tables db);
  for _ = 1 to 40 do
    random_step db st next_id
  done;
  let replayed = Table.rollback_undo (tables db) in
  Alcotest.(check bool) "something was undone" true (replayed > 0);
  Alcotest.(check bool) "logs closed" true
    (List.for_all (fun t -> t.Table.undo = None) (tables db));
  Alcotest.(check (pair (list string) (list string)))
    "rows as before" rows_before (sorted_contents db);
  (* a rollback that left the key index stale would answer right but pay
     a whole-table rebuild on the next key read *)
  Alcotest.(check bool) "primary-key index at least as fresh as before" true
    (stale_before || not (table db "k").Table.pk_stale);
  Alcotest.(check bool) "rows equal the capture" true
    (Snapshot.capture db ~tables:[ "k"; "u" ] = before);
  Alcotest.(check bool) "every index answers as before" true
    (probe db = probe_before);
  (* the restored indexes keep working: a restored key still conflicts *)
  match fst rows_before with
  | [] -> ()
  | _ ->
    let id = Value.to_string (List.hd (Table.to_rows (table db "k"))).(0) in
    (match Database.exec db (Printf.sprintf "INSERT INTO k VALUES (%s, 'x', 0)" id) with
     | exception Error.Sql_error _ -> ()
     | _ -> Alcotest.fail "primary key lost by the rollback")

let commit_matches_no_log seed () =
  let logged, st, next_id = seeded_db seed in
  let plain, st', next_id' = seeded_db seed in
  Table.begin_undo (tables logged);
  for _ = 1 to 40 do
    random_step logged st next_id;
    random_step plain st' next_id'
  done;
  Table.commit_undo (tables logged);
  Alcotest.(check (pair (list string) (list string)))
    "same rows" (sorted_contents plain) (sorted_contents logged);
  Alcotest.(check bool) "same index answers" true
    (probe logged = probe plain);
  List.iter
    (fun t ->
       let total = Vec.length t.Table.slots in
       Alcotest.(check bool) "deferred compaction ran at commit" true
         (total <= 64 || t.Table.live * 2 >= total))
    (tables logged)

let seeds = List.init 12 (fun i -> i + 1)

let suite =
  List.map
    (fun seed ->
       Util.tc (Printf.sprintf "random DML rolled back (seed %d)" seed)
         (rollback_restores seed))
    seeds
  @ List.map
      (fun seed ->
         Util.tc (Printf.sprintf "random DML committed (seed %d)" seed)
           (commit_matches_no_log seed))
      [ 1; 2; 3; 4 ]
  @ [ Util.tc "a second begin and index DDL are refused while open" (fun () ->
        let db = Util.db_with schema in
        Table.begin_undo [ table db "k" ];
        (match Table.begin_undo [ table db "u"; table db "k" ] with
         | exception Error.Sql_error _ -> ()
         | () -> Alcotest.fail "nested begin accepted");
        Alcotest.(check bool) "a refused begin opens nothing" true
          ((table db "u").Table.undo = None);
        (match Database.exec db "CREATE INDEX idx_k_v ON k(v)" with
         | exception Error.Sql_error _ -> ()
         | _ -> Alcotest.fail "index DDL accepted under an open log");
        Table.commit_undo [ table db "k" ];
        Util.exec db "CREATE INDEX idx_k_v2 ON k(v)");
      Util.tc "a bulk load into an emptied keyed table rolls back fresh"
        (fun () ->
           let db = Util.db_with schema in
           Util.exec db "INSERT INTO k VALUES (1, 'g0', 1), (2, 'g1', 2)";
           Util.check_rows db "SELECT v FROM k WHERE id = 2" [ "(2)" ];
           let k = table db "k" in
           Alcotest.(check bool) "fresh before" false k.Table.pk_stale;
           Table.begin_undo [ k ];
           Util.exec db "DELETE FROM k WHERE v >= 0";
           Util.exec db "INSERT INTO k VALUES (3, 'g0', 3), (4, 'g1', 4)";
           Alcotest.(check bool) "the bulk load left the index stale" true
             k.Table.pk_stale;
           ignore (Table.rollback_undo [ k ]);
           Alcotest.(check bool) "fresh after the rollback" false
             k.Table.pk_stale;
           Util.check_rows db "SELECT id, v FROM k WHERE id = 1" [ "(1, 1)" ];
           Util.check_rows db "SELECT id FROM k WHERE id = 3" []);
      Util.tc "rollback cost follows the rows changed, not the table"
        (fun () ->
           let db = Util.db_with schema in
           let next_id = ref 0 in
           let st = Random.State.make [| 7 |] in
           Util.exec db ("INSERT INTO k VALUES " ^ k_rows st next_id 5_000);
           Table.begin_undo (tables db);
           Util.exec db "INSERT INTO k VALUES (-1, 'g0', 1)";
           Util.exec db "UPDATE k SET v = 0 WHERE id = 3";
           Alcotest.(check int) "one entry per row touched" 3
             (Table.rollback_undo (tables db));
           Alcotest.(check int) "table intact" 5_000
             (Table.row_count (table db "k"))) ]
