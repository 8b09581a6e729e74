(* The 64-bit state lives in an 8-byte buffer read and written with
   [Bytes.get/set_int64_le]: the compiler keeps those values unboxed,
   where a [mutable state : int64] field would box on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.shift_right_logical (int64 t) 1 in
    let m = Int64.rem r b in
    if Int64.(sub (sub r m) (sub b 1L)) >= 0L then v := Int64.to_int m
  done;
  !v

let float t bound =
  let r = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.(logand (int64 t) 1L) = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
