type words =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { len : int; words : words }

let ba_create n : words =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = ba_create ((len + 63) / 64) }

let length t = t.len
let num_words t = Bigarray.Array1.dim t.words

let copy t =
  let words = ba_create (num_words t) in
  Bigarray.Array1.blit t.words words;
  { t with words }

let check_index t i op =
  if i < 0 || i >= t.len then invalid_arg ("Bitvec." ^ op ^ ": index out of range")

(* Word indices get the same labeled validation as bit indices: an
   out-of-range [w] must not escape as a bare Bigarray bounds error,
   and [create 0] (zero words) must reject every [w] rather than
   behave differently from the checked bit accessors. *)
let check_word t w op =
  if w < 0 || w >= num_words t then
    invalid_arg ("Bitvec." ^ op ^ ": word index out of range")

let get t i =
  check_index t i "get";
  Int64.logand
    (Int64.shift_right_logical (Bigarray.Array1.unsafe_get t.words (i / 64))
       (i land 63))
    1L
  = 1L

let set t i =
  check_index t i "set";
  Bigarray.Array1.unsafe_set t.words (i / 64)
    (Int64.logor
       (Bigarray.Array1.unsafe_get t.words (i / 64))
       (Int64.shift_left 1L (i land 63)))

(* Bits of the last word at index >= len, as a clearing mask. *)
let tail_mask t =
  let used = t.len land 63 in
  if used = 0 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L used) 1L

let word t w =
  check_word t w "word";
  Bigarray.Array1.unsafe_get t.words w

let set_word t w bits =
  check_word t w "set_word";
  let bits =
    if w = num_words t - 1 then Int64.logand bits (tail_mask t) else bits
  in
  Bigarray.Array1.unsafe_set t.words w bits

let unsafe_words t = t.words

let[@inline] popcount64 x =
  let open Int64 in
  let m1 = 0x5555555555555555L in
  let m2 = 0x3333333333333333L in
  let m4 = 0x0F0F0F0F0F0F0F0FL in
  let x = sub x (logand (shift_right_logical x 1) m1) in
  let x = add (logand x m2) (logand (shift_right_logical x 2) m2) in
  let x = logand (add x (shift_right_logical x 4)) m4 in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let[@inline] ctz64 x =
  if x = 0L then 64
  else popcount64 (Int64.sub (Int64.logand x (Int64.neg x)) 1L)

let count t =
  let acc = ref 0 in
  for w = 0 to num_words t - 1 do
    acc := !acc + popcount64 (Bigarray.Array1.unsafe_get t.words w)
  done;
  !acc

let is_empty t =
  let n = num_words t in
  let rec scan w =
    w >= n || (Bigarray.Array1.unsafe_get t.words w = 0L && scan (w + 1))
  in
  scan 0

(* A plain loop with no closure, and [ctz64] inlined so the word is
   never boxed: a call allocates nothing, and the matrix readers make
   one per row. *)
let first_set t =
  let n = num_words t in
  let w = ref 0 in
  while !w < n && Bigarray.Array1.unsafe_get t.words !w = 0L do
    incr w
  done;
  if !w = n then -1 else (!w * 64) + ctz64 (Bigarray.Array1.unsafe_get t.words !w)

let equal a b =
  a.len = b.len
  && begin
    let n = num_words a in
    let rec scan w =
      w >= n
      || (Bigarray.Array1.unsafe_get a.words w
            = Bigarray.Array1.unsafe_get b.words w
         && scan (w + 1))
    in
    scan 0
  end

let check_lengths a b op =
  if a.len <> b.len then invalid_arg ("Bitvec." ^ op ^ ": length mismatch")

let inter_count a b =
  check_lengths a b "inter_count";
  let acc = ref 0 in
  for w = 0 to num_words a - 1 do
    acc :=
      !acc
      + popcount64
          (Int64.logand
             (Bigarray.Array1.unsafe_get a.words w)
             (Bigarray.Array1.unsafe_get b.words w))
  done;
  !acc

let intersects a b =
  check_lengths a b "intersects";
  let n = num_words a in
  let rec scan w =
    w < n
    && (Int64.logand
          (Bigarray.Array1.unsafe_get a.words w)
          (Bigarray.Array1.unsafe_get b.words w)
        <> 0L
       || scan (w + 1))
  in
  scan 0

let diff_inplace a b =
  check_lengths a b "diff_inplace";
  for w = 0 to num_words a - 1 do
    Bigarray.Array1.unsafe_set a.words w
      (Int64.logand
         (Bigarray.Array1.unsafe_get a.words w)
         (Int64.lognot (Bigarray.Array1.unsafe_get b.words w)))
  done

let iter_set t f =
  for w = 0 to num_words t - 1 do
    let bits = ref (Bigarray.Array1.unsafe_get t.words w) in
    while !bits <> 0L do
      let k = ctz64 !bits in
      f ((w * 64) + k);
      bits := Int64.logand !bits (Int64.sub !bits 1L)
    done
  done
