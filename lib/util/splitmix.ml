(* The state lives in an 8-byte buffer: a mutable [int64] field would box
   a fresh value at every draw, and draws sit on every routing step. *)
type t = { state : Bytes.t; mutable draws : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state draws =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 state;
  { state = b; draws }

let create seed = of_state (mix64 (Int64.of_int seed)) 0

let copy g = { state = Bytes.copy g.state; draws = g.draws }

let[@inline] bits64 g =
  let state = Int64.add (Bytes.get_int64_ne g.state 0) golden_gamma in
  Bytes.set_int64_ne g.state 0 state;
  g.draws <- g.draws + 1;
  mix64 state

let split g = of_state (bits64 g) 0

let draws g = g.draws

(* Non-negative 62-bit int from the top bits: keeps arithmetic on OCaml's
   63-bit native ints exact. *)
let[@inline] bits62 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

(* Rejection sampling to avoid modulo bias. *)
let rec draw_below g n limit =
  let v = bits62 g in
  if v >= limit then draw_below g n limit else v mod n

let int g n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let mask_range = 0x3FFF_FFFF_FFFF_FFFF in
  draw_below g n (mask_range - (mask_range mod n))

let float g x =
  (* 53 random mantissa bits scaled to [0, 1). *)
  let u = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int u /. 9007199254740992.0 *. x

let bool g = Int64.logand (bits64 g) 1L = 1L

let exponential g mean =
  (* Inverse CDF; [1.0 -. u] keeps the log argument strictly positive. *)
  let u = float g 1.0 in
  -. mean *. log (1.0 -. u)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a
