(* Host facts read from /proc: CPU time and peak RSS of a process, the
   CPU count, and the provenance every run records. *)

let read_file path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let b = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel b ic 1
           done
         with End_of_file -> ());
        Some (Buffer.contents b))
  with Sys_error _ -> None

let pid_path pid file =
  match pid with
  | None -> "/proc/self/" ^ file
  | Some p -> Printf.sprintf "/proc/%d/%s" p file

(* utime + stime in seconds, from fields 14 and 15 of /proc/<pid>/stat
   (counted after the parenthesised command name, which may hold
   spaces). Clock ticks are 100 per second on Linux. *)
let cpu_seconds ?pid () =
  match read_file (pid_path pid "stat") with
  | None -> nan
  | Some s ->
    let rest =
      let i = String.rindex s ')' in
      String.sub s (i + 2) (String.length s - i - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (* rest starts at field 3 (state) *)
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let status_kb ?pid key =
  match read_file (pid_path pid "status") with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           (match String.split_on_char ' ' v with
            | n :: _ -> float_of_string n
            | [] -> acc)
         | _ -> acc)
      nan (String.split_on_char '\n' s)

(* Peak resident set (VmHWM) in MB. *)
let rss_peak_mb ?pid () = status_kb ?pid "VmHWM" /. 1024.0

(* CPUs this process may run on: what `nproc` prints. *)
let nproc () =
  match read_file "/proc/self/status" with
  | None -> 1
  | Some s ->
    let line =
      List.find_opt
        (fun l -> String.length l > 17 && String.sub l 0 17 = "Cpus_allowed_list")
        (String.split_on_char '\n' s)
    in
    (match line with
     | None -> 1
     | Some l ->
       let v = String.trim (List.nth (String.split_on_char ':' l) 1) in
       List.fold_left
         (fun acc range ->
            match String.split_on_char '-' range with
            | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
            | [ _ ] -> acc + 1
            | _ -> acc)
         0 (String.split_on_char ',' v))

(* Seconds the hypervisor gave this virtual machine's CPUs to other
   guests (the steal column of /proc/stat, summed over CPUs). *)
let steal_seconds () =
  match read_file "/proc/stat" with
  | None -> nan
  | Some s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: "" :: fields when List.length fields >= 8 ->
        float_of_string (List.nth fields 7) /. 100.0
      | _ -> nan)

(* A fixed CPU-bound loop, timed: a run on a host that ran slow shows it
   here, next to the wall and CPU times. *)
let spin_ms () =
  let t0 = Stats.now () in
  let x = ref 0 in
  for i = 1 to 5_000_000 do
    x := ((!x * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  1000.0 *. (Stats.now () -. t0)

let provenance ~seed =
  Json.Obj
    [ ("seed", Json.Int seed);
      ("nproc", Json.Int (nproc ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version) ]
