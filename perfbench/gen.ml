(* Seeded statement streams for the three workloads.

   Everything the program under test sees is SQL text produced here from
   the run's seed: the same seed gives byte-identical schemas, batches and
   per-connection operation streams. Generators track just enough state
   (live row keys, fresh-id counters) that every keyed statement targets
   a row that exists, so no operation fails unless it is designed to. *)

let rng seed salt = Random.State.make [| seed; salt |]

(* A growable set of int keys with O(1) uniform pick and removal. *)
module Keys = struct
  type t = { mutable a : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create cap = { a = Array.make (max cap 16) 0; n = 0; pos = Hashtbl.create cap }

  let add t k =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- k;
    Hashtbl.replace t.pos k t.n;
    t.n <- t.n + 1

  let remove t k =
    match Hashtbl.find_opt t.pos k with
    | None -> ()
    | Some i ->
      let last = t.a.(t.n - 1) in
      t.a.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos k;
      t.n <- t.n - 1

  let pick t r = t.a.(Random.State.int r t.n)
  let size t = t.n
end

(* Zipf(1.1) sampler over [0, n). *)
let zipf n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) 1.1);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun r ->
    let u = Random.State.float r total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let regions = [| "emea"; "amer"; "apac"; "latam"; "anz"; "nordics"; "mena"; "cee" |]

(* Multi-row INSERTs of [rows] tuples, [chunk] per statement, each with
   its row count. *)
let counted_chunks ~table ~chunk rows =
  let rec go acc = function
    | [] -> List.rev acc
    | rows ->
      let rec take k acc rest =
        match rest with
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | _ -> (List.rev acc, rest)
      in
      let now, rest = take chunk [] rows in
      go
        ((Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " now),
          List.length now)
         :: acc)
        rest
  in
  go [] rows

let insert_chunks ~table ~chunk rows = List.map fst (counted_chunks ~table ~chunk rows)

(* ------------------------------------------------------------------ *)
(* serve_oltp: two connections against `openivm serve`                 *)

module Serve = struct
  let groups_rows = 20_000
  let group_keys = 1_000
  let sales_rows = 20_000
  let customers = 1_000
  let connections = 2

  let fresh_id_base conn = 10_000_000 * (conn + 1)

  let schema_sql ~seed =
    let r = rng seed 0 in
    let z = zipf customers in
    let ddl =
      [ "CREATE TABLE groups(group_index INTEGER, group_value INTEGER)";
        "CREATE TABLE customers(customer_id INTEGER PRIMARY KEY, region \
         VARCHAR)";
        "CREATE TABLE sales(sale_id INTEGER, customer_id INTEGER, amount \
         INTEGER)" ]
    in
    let custs =
      List.init customers (fun c ->
          Printf.sprintf "(%d, '%s')" c regions.(c mod Array.length regions))
    in
    let groups =
      List.init groups_rows (fun _ ->
          Printf.sprintf "(%d, %d)" (Random.State.int r group_keys)
            (Random.State.int r 1000))
    in
    let sales =
      List.init sales_rows (fun i ->
          Printf.sprintf "(%d, %d, %d)" (i + 1) (z r) (1 + Random.State.int r 500))
    in
    let index =
      [ "CREATE INDEX idx_groups_key ON groups(group_index)";
        "CREATE INDEX idx_sales_id ON sales(sale_id)" ]
    in
    String.concat ";\n"
      (ddl
       @ insert_chunks ~table:"customers" ~chunk:500 custs
       @ insert_chunks ~table:"groups" ~chunk:500 groups
       @ insert_chunks ~table:"sales" ~chunk:500 sales
       @ index)
    ^ ";\n"

  (* (view, read of its visible columns, its defining query) *)
  let views =
    [ ( "v_groups",
        "CREATE MATERIALIZED VIEW v_groups AS SELECT group_index, \
         SUM(group_value) AS total, COUNT(*) AS cnt FROM groups GROUP BY \
         group_index",
        "SELECT group_index, total, cnt FROM v_groups",
        "SELECT group_index, SUM(group_value) AS total, COUNT(*) AS cnt FROM \
         groups GROUP BY group_index" );
      ( "v_region",
        "CREATE MATERIALIZED VIEW v_region AS SELECT customers.region, \
         SUM(sales.amount) AS total FROM sales JOIN customers ON \
         sales.customer_id = customers.customer_id GROUP BY customers.region",
        "SELECT region, total FROM v_region",
        "SELECT customers.region, SUM(sales.amount) AS total FROM sales JOIN \
         customers ON sales.customer_id = customers.customer_id GROUP BY \
         customers.region" ) ]

  let init_sql =
    String.concat ";\n" (List.map (fun (_, create, _, _) -> create) views)
    ^ ";\n"

  type op =
    | Write of { sql : string; expect : int }
        (** one single-statement unit; [expect] = affected rows *)
    | Txn of { stmts : string list; fails : bool }
        (** BEGIN, [stmts], COMMIT; [fails]: the last statement repeats a
            customer's primary key, so COMMIT must answer ERR *)
    | Read of { sql : string; view : string }

  type stream = {
    r : Random.State.t;
    conn : int;
    z : Random.State.t -> int;
    live : Keys.t;  (* sale ids this connection owns *)
    mutable next_id : int;
  }

  let stream ~seed ~conn =
    let live = Keys.create (sales_rows / connections + 1024) in
    for id = 1 to sales_rows do
      if id mod connections = conn then Keys.add live id
    done;
    { r = rng seed (1 + conn); conn; z = zipf customers; live;
      next_id = fresh_id_base conn }

  let fresh_sale s =
    s.next_id <- s.next_id + 1;
    (s.next_id,
     Printf.sprintf "INSERT INTO sales VALUES (%d, %d, %d)" s.next_id (s.z s.r)
       (1 + Random.State.int s.r 500))

  let groups_insert s =
    Printf.sprintf "INSERT INTO groups VALUES (%d, %d), (%d, %d)"
      (Random.State.int s.r group_keys) (Random.State.int s.r 1000)
      (Random.State.int s.r group_keys) (Random.State.int s.r 1000)

  (* 40% reads (70% point on v_groups, 30% full v_region), 5% 3-statement
     transactions (1 in 20 designed to fail), 55% single DML *)
  let next s =
    let roll = Random.State.int s.r 100 in
    if roll < 40 then
      if Random.State.int s.r 10 < 7 then
        Read
          { view = "v_groups";
            sql =
              Printf.sprintf
                "SELECT group_index, total, cnt FROM v_groups WHERE \
                 group_index = %d"
                (Random.State.int s.r group_keys) }
      else Read { view = "v_region"; sql = "SELECT region, total FROM v_region" }
    else if roll < 45 then begin
      let fails = Random.State.int s.r 20 = 0 in
      let id, ins = fresh_sale s in
      let upd =
        Printf.sprintf
          "UPDATE groups SET group_value = group_value + %d WHERE group_index \
           = %d"
          (1 + Random.State.int s.r 9) (Random.State.int s.r group_keys)
      in
      let last =
        if fails then
          Printf.sprintf "INSERT INTO customers VALUES (%d, 'dup')"
            (Random.State.int s.r customers)
        else groups_insert s
      in
      if not fails then Keys.add s.live id;
      Txn { stmts = [ ins; upd; last ]; fails }
    end
    else
      let sub = Random.State.int s.r 100 in
      if sub < 35 then Write { sql = groups_insert s; expect = 2 }
      else if sub < 60 then begin
        let id, sql = fresh_sale s in
        Keys.add s.live id;
        Write { sql; expect = 1 }
      end
      else if sub < 80 then
        Write
          { sql =
              Printf.sprintf
                "UPDATE sales SET amount = amount + %d WHERE sale_id = %d"
                (1 + Random.State.int s.r 9) (Keys.pick s.live s.r);
            expect = 1 }
      else begin
        let id = Keys.pick s.live s.r in
        Keys.remove s.live id;
        Write { sql = Printf.sprintf "DELETE FROM sales WHERE sale_id = %d" id;
                expect = 1 }
      end

  let op_to_string = function
    | Write { sql; expect } -> Printf.sprintf "W%d %s" expect sql
    | Txn { stmts; fails } ->
      Printf.sprintf "T%b %s" fails (String.concat "; " stmts)
    | Read { sql; _ } -> "R " ^ sql
end

(* ------------------------------------------------------------------ *)
(* refresh_bulk: in-process Database + Runner, big batches             *)

module Bulk = struct
  let groups_rows = 200_000
  let group_keys = 10_000
  let sales_rows = 200_000
  let customers = 5_000

  (* per round *)
  let inserts = 500
  let updates = 1_100
  let deletes = 400
  let redeletes = 125  (* of [deletes]: rows inserted by the same batch *)
  let sales_inserts = 500
  let chunk = 25
  let point_reads = 16

  let schema =
    [ "CREATE TABLE groups(gid INTEGER, group_index INTEGER, group_value \
       INTEGER)";
      "CREATE TABLE customers(customer_id INTEGER PRIMARY KEY, region VARCHAR)";
      "CREATE TABLE sales(sale_id INTEGER, customer_id INTEGER, amount \
       INTEGER)" ]

  let indexes =
    [ "CREATE INDEX idx_groups_gid ON groups(gid)";
      "CREATE INDEX idx_groups_key ON groups(group_index)";
      "CREATE INDEX idx_sales_id ON sales(sale_id)" ]

  (* install order; the last three are the filter → SUM/COUNT → global
     SUM cascade *)
  let views =
    [ ( "v_groups",
        "CREATE MATERIALIZED VIEW v_groups AS SELECT group_index, \
         SUM(group_value) AS total, COUNT(*) AS cnt FROM groups GROUP BY \
         group_index" );
      ( "v_minmax",
        "CREATE MATERIALIZED VIEW v_minmax AS SELECT group_index, \
         MIN(group_value) AS lo, MAX(group_value) AS hi FROM groups GROUP BY \
         group_index" );
      ( "v_region",
        "CREATE MATERIALIZED VIEW v_region AS SELECT customers.region, \
         SUM(sales.amount) AS total FROM sales JOIN customers ON \
         sales.customer_id = customers.customer_id GROUP BY customers.region" );
      ( "v_filt",
        "CREATE MATERIALIZED VIEW v_filt AS SELECT group_index, group_value \
         FROM groups WHERE group_value > 500" );
      ( "v_fsum",
        "CREATE MATERIALIZED VIEW v_fsum AS SELECT group_index, \
         SUM(group_value) AS total, COUNT(*) AS cnt FROM v_filt GROUP BY \
         group_index" );
      ( "v_cascade",
        "CREATE MATERIALIZED VIEW v_cascade AS SELECT SUM(total) AS grand, \
         COUNT(*) AS n_groups FROM v_fsum" ) ]

  (* the round's reads: each lazily refreshes its view (and, for the
     cascade, its upstreams) *)
  let top_reads =
    [ ("v_groups", "SELECT group_index, total, cnt FROM v_groups");
      ("v_minmax", "SELECT group_index, lo, hi FROM v_minmax");
      ("v_region", "SELECT region, total FROM v_region");
      ("v_cascade", "SELECT grand, n_groups FROM v_cascade") ]

  type t = {
    r : Random.State.t;
    z : Random.State.t -> int;
    live : Keys.t;  (* gids currently in groups *)
    mutable next_gid : int;
    mutable next_sale : int;
  }

  let create ~seed =
    let live = Keys.create (groups_rows + 100_000) in
    for gid = 1 to groups_rows do Keys.add live gid done;
    { r = rng seed 100; z = zipf customers; live; next_gid = groups_rows;
      next_sale = sales_rows }

  let value t = Random.State.int t.r 1000

  (* schema and base rows; drawn from its own stream so the rounds do
     not depend on how the load is chunked *)
  let setup_sql ~seed =
    let r = rng seed 101 in
    let z = zipf customers in
    let custs =
      List.init customers (fun c ->
          Printf.sprintf "(%d, '%s')" c regions.(c mod Array.length regions))
    in
    let groups =
      List.init groups_rows (fun i ->
          Printf.sprintf "(%d, %d, %d)" (i + 1) (Random.State.int r group_keys)
            (Random.State.int r 1000))
    in
    let sales =
      List.init sales_rows (fun i ->
          Printf.sprintf "(%d, %d, %d)" (i + 1) (z r) (1 + Random.State.int r 500))
    in
    schema
    @ insert_chunks ~table:"customers" ~chunk:5_000 custs
    @ insert_chunks ~table:"groups" ~chunk:5_000 groups
    @ insert_chunks ~table:"sales" ~chunk:5_000 sales
    @ indexes

  (* One write batch: fresh groups rows, then a shuffled mix of keyed
     UPDATEs and DELETEs (a quarter of the fresh rows deleted again, so
     consolidation has +/- pairs to cancel), then fresh sales rows. Each
     statement comes with the row count it must affect. *)
  let round t =
    let fresh = Keys.create inserts in
    let ins =
      List.init inserts (fun _ ->
          t.next_gid <- t.next_gid + 1;
          Keys.add t.live t.next_gid;
          Keys.add fresh t.next_gid;
          Printf.sprintf "(%d, %d, %d)" t.next_gid
            (Random.State.int t.r group_keys) (value t))
    in
    let actions =
      Array.init (updates + deletes) (fun i -> if i < updates then `U else `D)
    in
    for i = Array.length actions - 1 downto 1 do
      let j = Random.State.int t.r (i + 1) in
      let x = actions.(i) in
      actions.(i) <- actions.(j);
      actions.(j) <- x
    done;
    let redeleted = ref 0 in
    let keyed =
      Array.to_list
        (Array.map
           (function
             | `U ->
               (Printf.sprintf "UPDATE groups SET group_value = %d WHERE gid = %d"
                  (value t) (Keys.pick t.live t.r),
                1)
             | `D ->
               let gid =
                 if !redeleted < redeletes && Keys.size fresh > 0 then begin
                   incr redeleted;
                   Keys.pick fresh t.r
                 end
                 else Keys.pick t.live t.r
               in
               Keys.remove t.live gid;
               Keys.remove fresh gid;
               (Printf.sprintf "DELETE FROM groups WHERE gid = %d" gid, 1))
           actions)
    in
    let sales =
      List.init sales_inserts (fun _ ->
          t.next_sale <- t.next_sale + 1;
          Printf.sprintf "(%d, %d, %d)" t.next_sale (t.z t.r)
            (1 + Random.State.int t.r 500))
    in
    counted_chunks ~table:"groups" ~chunk ins
    @ keyed
    @ counted_chunks ~table:"sales" ~chunk sales

  (* point reads on the already-fresh per-key views between batches *)
  let point_reads_sql t =
    List.init point_reads (fun i ->
        let k = Random.State.int t.r group_keys in
        if i mod 2 = 0 then
          ("v_groups",
           Printf.sprintf
             "SELECT group_index, total, cnt FROM v_groups WHERE group_index = %d"
             k)
        else
          ("v_minmax",
           Printf.sprintf
             "SELECT group_index, lo, hi FROM v_minmax WHERE group_index = %d" k))
end

(* ------------------------------------------------------------------ *)
(* htap_durable: Oltp → bridge → Store-backed OLAP replica             *)

module Htap = struct
  let base_rows = 20_000
  let group_domain = 100
  let stmts_per_round = 20
  let fresh_reads = 2
  let checkpoint_every = 50

  let schema_sql =
    "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER); CREATE \
     INDEX idx_groups_key ON groups(group_index)"

  let view_name = "v_minmax"

  let view_sql =
    "CREATE MATERIALIZED VIEW v_minmax AS SELECT group_index, \
     MIN(group_value) AS lo, MAX(group_value) AS hi, COUNT(*) AS cnt FROM \
     groups GROUP BY group_index"

  type t = { tx : Openivm_htap.Txgen.t; r : Random.State.t }

  let create ~seed =
    { tx = Openivm_htap.Txgen.create ~seed ~group_domain (); r = rng seed 200 }

  let seed_rows t = Openivm_htap.Txgen.seed_rows t.tx base_rows
  let round t = Openivm_htap.Txgen.batch t.tx stmts_per_round

  let point_read t =
    Printf.sprintf
      "SELECT group_index, lo, hi, cnt FROM v_minmax WHERE group_index = \
       'g%04d'"
      (Random.State.int t.r group_domain)
end
