(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would box a fresh int64 (and pay a write barrier) on every
   draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t =
  let child_seed = next_int64 t in
  create child_seed

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling avoids modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let uniform t =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let float t bound = uniform t *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  -.mean *. log (nonzero ())

let lognormal_cv t ~mean ~cv =
  if cv <= 0. then mean
  else begin
    let sigma2 = log (1. +. (cv *. cv)) in
    let mu = log mean -. (sigma2 /. 2.) in
    exp (gaussian t ~mu ~sigma:(sqrt sigma2))
  end

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
