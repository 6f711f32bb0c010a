(* SplitMix64.  The state advances by the golden-ratio Weyl constant;
   each output is the advanced state pushed through a 64-bit finalizer
   (Stafford's "Mix13" variant of the MurmurHash3 mixer). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

(* Pure stream derivation: unlike [split], the parent state is read but
   not advanced, so [derive t i] depends only on (state, i).  Adding a
   distinct multiple of the (odd) golden gamma per index keeps the
   pre-mix keys distinct; two finalizer rounds decorrelate children
   from the parent's own output sequence. *)
let derive t i =
  let key = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  { state = mix64 (mix64 key) }

(* FNV-1a over the key: a stable, order-independent stream index. *)
let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let keyed_seed ~key ~seed =
  let stream = Int64.to_int (Int64.shift_right_logical (fnv1a64 key) 2) in
  let rng = derive (create seed) stream in
  Int64.to_int (Int64.shift_right_logical (bits64 rng) 2)

(* Uniform int in [0, n) by rejection on the top of the range, to avoid
   modulo bias.  [n] fits an OCaml int, so working on 62 bits of the
   64-bit output is safe. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    let r = v mod n in
    (* reject the final partial block *)
    if v - r > max_int - n + 1 then draw () else r
  in
  draw ()

let int_in_range t ~min ~max =
  if min > max then invalid_arg "Rng.int_in_range: min > max";
  min + int t (max - min + 1)

let float t x =
  (* 53 random bits, scaled to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let u = float_of_int bits /. 9007199254740992.0 in
  u *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  let u1 = non_zero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | l -> List.nth l (int t (List.length l))

let sample_without_replacement t k arr =
  let n = Array.length arr in
  let k = Stdlib.min k n in
  let pool = Array.copy arr in
  for i = 0 to k - 1 do
    let j = int_in_range t ~min:i ~max:(n - 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
