open Terradir_util

type t = { bits : Bitset.t; k : int }

(* SplitMix64 finalizer as an integer hash; two independent hashes come from
   salting the input with distinct odd constants.  Inlined so the Int64
   arithmetic stays unboxed in its callers. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Truncate to non-negative native ints. *)
let[@inline] mask v = Int64.to_int (Int64.shift_right_logical v 2)

(* The second hash, salted from the first's unmasked value; odd, so the
   stride avoids short probe cycles. *)
let[@inline] stride h1 = mask (mix64 (Int64.add h1 0x9E3779B97F4A7C15L)) lor 1

let create ?(bits_per_element = 10) ?(hashes = 7) ~expected () =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if bits_per_element <= 0 then invalid_arg "Bloom.create: bits_per_element must be positive";
  if hashes <= 0 then invalid_arg "Bloom.create: hashes must be positive";
  { bits = Bitset.create (max 64 (expected * bits_per_element)); k = hashes }

(* Probes [i .. k) of the positions [h1 + i*h2 mod m]: with [set], sets
   each bit; otherwise answers whether all of them are set. *)
let rec probe t h1 h2 ~set i =
  i >= t.k
  ||
  let m = Bitset.length t.bits in
  let pos = (h1 + (i * h2)) mod m in
  let pos = if pos < 0 then pos + m else pos in
  if set then begin
    Bitset.set t.bits pos;
    probe t h1 h2 ~set (i + 1)
  end
  else Bitset.mem t.bits pos && probe t h1 h2 ~set (i + 1)

let add t x =
  let h = mix64 (Int64.of_int x) in
  ignore (probe t (mask h) (stride h) ~set:true 0)

let mem t x =
  let h = mix64 (Int64.of_int x) in
  probe t (mask h) (stride h) ~set:false 0

let rec first_hit filters n h1 h2 i =
  if i >= n then -1 else if probe filters.(i) h1 h2 ~set:false 0 then i else first_hit filters n h1 h2 (i + 1)

let first_mem filters n x =
  let h = mix64 (Int64.of_int x) in
  first_hit filters n (mask h) (stride h) 0

let fill_ratio t =
  float_of_int (Bitset.count t.bits) /. float_of_int (Bitset.length t.bits)

let cardinality_estimate t =
  let m = float_of_int (Bitset.length t.bits) in
  let x = float_of_int (Bitset.count t.bits) in
  if x >= m then infinity else -.m /. float_of_int t.k *. log (1.0 -. (x /. m))

let false_positive_rate t = fill_ratio t ** float_of_int t.k

let reset t = Bitset.reset t.bits

let copy t = { bits = Bitset.copy t.bits; k = t.k }

let equal a b = a.k = b.k && Bitset.equal a.bits b.bits

let num_bits t = Bitset.length t.bits

let num_hashes t = t.k

let of_list ?bits_per_element ?hashes elements =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 (List.length elements)) () in
  List.iter (add t) elements;
  t

let of_iter ?bits_per_element ?hashes ~expected iter =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 expected) () in
  iter (add t);
  t
