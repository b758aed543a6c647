(* One benchmark run: set up a workload, measure it for --seconds, gate
   the result on view = recompute, and print the run record followed by
   the result line (the last line of standard output).

     main.exe --workload serve_oltp|refresh_bulk|htap_durable --seed N
              --seconds S --trace 0|1 [--server-exe PATH]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics of a traced run over the same seeded stream. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--server-exe PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and exe = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server-exe", Arg.Set_string exe, "PATH the openivm CLI (serve_oltp)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let record =
    [ ("workload", Json.Str !workload); ("trace", Json.Int !trace);
      ("seconds", Json.Num !seconds);
      ("provenance", Host.provenance ~seed:!seed) ]
  in
  let seed = !seed and seconds = !seconds in
  let go =
    match (!workload, traced) with
    | "serve_oltp", false ->
      if !exe = "" then (prerr_endline "serve_oltp needs --server-exe"; exit 2);
      Serve_oltp.untraced ~exe:!exe
    | "serve_oltp", true -> Serve_oltp.traced
    | "refresh_bulk", false -> Refresh_bulk.untraced
    | "refresh_bulk", true -> Refresh_bulk.traced
    | "htap_durable", false -> Htap_durable.untraced
    | "htap_durable", true -> Htap_durable.traced
    | w, _ -> prerr_endline ("unknown workload: " ^ w ^ "\n" ^ usage); exit 2
  in
  let dir = Run.scratch_dir () in
  let spin_before = Host.spin_ms () and steal_before = Host.steal_seconds () in
  let run =
    try Fun.protect ~finally:(fun () -> Run.remove_tree dir) (fun () -> go ~seed ~seconds ~record)
    with e ->
      prerr_endline ("perfbench: run failed: " ^ Printexc.to_string e);
      exit 2
  in
  (try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ());
  let host =
    Json.Obj
      [ ("spin_before_ms", Json.Num spin_before);
        ("spin_after_ms", Json.Num (Host.spin_ms ()));
        ("steal_s", Json.Num (Host.steal_seconds () -. steal_before)) ]
  in
  print_endline
    (Json.to_string (Json.Obj [ ("run", Json.Obj (run.Run.record @ [ ("host", host) ])) ]));
  let result correct metrics =
    Json.Obj
      [ ("correct", Json.Bool correct); ("attempted", Json.Int run.Run.attempted);
        ("failed", Json.Int run.Run.failed);
        ("metrics",
         Json.Obj
           (List.map
              (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
              metrics)) ]
  in
  match (run.Run.divergences, run.Run.metrics) with
  | [], Ok metrics ->
    print_endline (Json.to_string (result true metrics))
  | [], Error missing ->
    prerr_endline
      ("perfbench: too few samples to report " ^ String.concat ", " missing);
    exit 1
  | ds, _ ->
    List.iter (fun d -> prerr_endline ("perfbench: " ^ Gate.describe d)) ds;
    print_endline (Json.to_string (result false []));
    exit 1
