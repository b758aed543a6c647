(* Latency samples, percentiles with the tail-sample rule, and the
   failure ledger behind [attempted]/[failed]. *)

(* Monotonic seconds with nanosecond resolution: a 7µs write must not be
   rounded to the microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A growable buffer of samples (milliseconds unless stated otherwise),
   each stamped with the time it was taken. *)
type samples = { mutable a : float array; mutable t : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; t = Array.make 1024 0.0; n = 0 }

let add_at s x t =
  if s.n = Array.length s.a then begin
    let grow v =
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit v 0 b 0 s.n;
      b
    in
    s.a <- grow s.a;
    s.t <- grow s.t
  end;
  s.a.(s.n) <- x;
  s.t.(s.n) <- t;
  s.n <- s.n + 1

let add s x = add_at s x (now ())

let count s = s.n
let to_array s = Array.sub s.a 0 s.n
let sum s = Array.fold_left ( +. ) 0.0 (to_array s)

let merge ss =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add_at out s.a.(i) s.t.(i) done) ss;
  out

(* Samples strictly beyond the [p] percentile of [n] samples. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* The [p] percentile, withheld ([None]) when fewer than ten samples lie
   beyond it: a tail read from a handful of samples is noise. The median
   only needs one sample. *)
let percentile s p =
  if s.n = 0 || (p > 0.5 && beyond s.n p < 10) then None
  else begin
    let a = to_array s in
    Array.sort Float.compare a;
    Some (quantile a p)
  end

let median_of l =
  match l with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    quantile a 0.5

let windows = 5

(* [f] applied to each of [windows] equal time slices of the measured
   phase [t0, t0 + wall), then the median over slices: a burst of host
   noise that spoils one or two slices does not move the result. [None]
   when a slice cannot answer. *)
let slices s ~t0 ~wall =
  let w = wall /. float_of_int windows in
  let parts = Array.init windows (fun _ -> samples ()) in
  for i = 0 to s.n - 1 do
    let k = min (windows - 1) (max 0 (int_of_float ((s.t.(i) -. t0) /. w))) in
    add_at parts.(k) s.a.(i) s.t.(i)
  done;
  parts

let windowed s ~t0 ~wall f =
  let rs = Array.to_list (Array.map f (slices s ~t0 ~wall)) in
  if List.mem None rs then None else Some (median_of (List.filter_map Fun.id rs))

(* Per-slice sums over the slice length. *)
let slice_rates s ~t0 ~wall =
  Array.map (fun part -> sum part /. (wall /. float_of_int windows)) (slices s ~t0 ~wall)

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)

(* What came back for one operation, reduced to what the ledger needs. *)
type reply =
  | Ok_rows of int        (** DML acknowledged with an affected count *)
  | Rows                  (** a SELECT answered *)
  | Err of string         (** an error reply *)
  | Overloaded            (** admission control refused the unit *)
  | Lost                  (** the connection died mid-operation *)

(* What the generator designed the operation to get. *)
type expect =
  | Affected of int option  (** success; an exact count when known *)
  | Answer                  (** rows *)
  | Designed_err            (** a duplicate-key COMMIT: must be ERR *)

(* An operation fails when its reply is not the designed one: OVERLOADED
   and a lost connection always fail, ERR fails unless designed, and a
   designed-to-fail COMMIT that succeeds fails too. *)
let is_failure expect reply =
  match (expect, reply) with
  | _, (Overloaded | Lost) -> true
  | Designed_err, Err _ -> false
  | Designed_err, _ -> true
  | Affected None, Ok_rows _ -> false
  | Affected (Some n), Ok_rows m -> n <> m
  | Answer, Rows -> false
  | (Affected _ | Answer), _ -> true

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable designed_errs : int;  (** designed failures that did answer ERR *)
}

let ledger () = { attempted = 0; failed = 0; designed_errs = 0 }

let record l expect reply =
  l.attempted <- l.attempted + 1;
  if is_failure expect reply then l.failed <- l.failed + 1
  else if expect = Designed_err then l.designed_errs <- l.designed_errs + 1

let error_rate l =
  if l.attempted = 0 then 0.0
  else float_of_int l.failed /. float_of_int l.attempted
