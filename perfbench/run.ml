(* What one workload invocation hands back to the command line. *)

type t = {
  divergences : Gate.divergence list;  (** empty = the gate passed *)
  attempted : int;
  failed : int;
  metrics : ((string * float * string) list, string list) result;
      (** name, value, unit; or the metrics that could not be measured *)
  record : (string * Json.t) list;     (** provenance, counts, host noise *)
}

(* The flags a run used: every workload runs the defaults. *)
let flags_record extra =
  let f = Openivm.Flags.default in
  ( "flags",
    Json.Obj
      ([ ("strategy", Json.Str (Openivm.Flags.strategy_to_string f.Openivm.Flags.strategy));
         ("engine", Json.Str (Openivm_engine.Exec.engine_to_string f.Openivm.Flags.exec_engine));
         ("domains", Json.Int f.Openivm.Flags.domains) ]
       @ extra) )

let scratch_dir () =
  let d = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench_tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
