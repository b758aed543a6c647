(* The correctness gate: a view's visible rows must equal its defining
   query recomputed over the base tables, as multisets of rendered rows.
   A run with any divergence reports correct = false and no metrics. *)

type divergence = {
  view : string;
  missing : string list;  (** in the recompute, not in the view *)
  extra : string list;    (** in the view, not in the recompute *)
}

let diff ~view ~got ~want =
  let rec go g w miss extra =
    match (g, w) with
    | [], [] -> (List.rev miss, List.rev extra)
    | x :: g', [] -> go g' [] miss (x :: extra)
    | [], y :: w' -> go [] w' (y :: miss) extra
    | x :: g', y :: w' ->
      let c = String.compare x y in
      if c = 0 then go g' w' miss extra
      else if c < 0 then go g' w miss (x :: extra)
      else go g w' (y :: miss) extra
  in
  match
    go (List.sort String.compare got) (List.sort String.compare want) [] []
  with
  | [], [] -> None
  | missing, extra -> Some { view; missing; extra }

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let describe d =
  Printf.sprintf "view %s diverges from its recompute: %d missing %s, %d extra %s"
    d.view (List.length d.missing)
    (String.concat " " (take 3 d.missing))
    (List.length d.extra)
    (String.concat " " (take 3 d.extra))
