(** Packed bit vectors over [int64] words.

    The fault-simulation engine stores one detection row per fault —
    bit [v] set iff vector [v] detects the fault — and answers every
    coverage query (curves, subset coverage, greedy compaction gains)
    with word-wide [AND]/[popcount] passes instead of per-bit scans.
    Bits at index [>= length] are kept zero as an invariant, so counts
    never need a trailing mask.

    Storage is a GC-opaque [Bigarray] of [int64] words ([c_layout]):
    million-bit detection matrices cost the garbage collector nothing
    to scan, and the packed fault-simulation kernels write whole words
    through {!unsafe_words} without boxing. *)

type t

val create : int -> t
(** [create n] — [n] zero bits.  Raises [Invalid_argument] on a
    negative length.  [create 0] is valid and empty. *)

val length : t -> int

val copy : t -> t

(** {1 Bit access} *)

val get : t -> int -> bool
val set : t -> int -> unit
(** Both raise [Invalid_argument] out of range. *)

(** {1 Word access}

    The packed fault simulator produces whole 64-bit detection words
    (one per vector block); these avoid 64 single-bit updates. *)

val num_words : t -> int
(** [ceil (length / 64)]. *)

val word : t -> int -> int64
val set_word : t -> int -> int64 -> unit
(** [set_word t w bits] overwrites word [w].  Bits beyond [length] in
    the final word are silently cleared to preserve the invariant.
    Both raise a labeled [Invalid_argument] when [w] is outside
    [0 .. num_words - 1] — in particular {e every} [w] on a
    zero-length vector, mirroring {!get}/{!set}'s checked behaviour. *)

val unsafe_words : t -> (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The backing word buffer, borrowed.  For allocation-free kernels
    that fuse loads, [Int64] ops and stores in single expressions; a
    writer must preserve the tail invariant itself (clear the final
    word's bits beyond [length]).  Everyone else wants
    {!word}/{!set_word}. *)

(** {1 Whole-vector queries} *)

val count : t -> int
(** Number of set bits (popcount). *)

val is_empty : t -> bool

val first_set : t -> int
(** Lowest set bit index, [-1] when none. *)

val equal : t -> t -> bool
(** Same length and same bits. *)

val inter_count : t -> t -> int
(** [popcount (a AND b)].  Raises [Invalid_argument] on a length
    mismatch. *)

val intersects : t -> t -> bool
(** [(a AND b) <> 0], without counting. *)

val diff_inplace : t -> t -> unit
(** [diff_inplace a b] clears in [a] every bit set in [b]
    ([a := a AND NOT b]).  Raises [Invalid_argument] on a length
    mismatch. *)

val iter_set : t -> (int -> unit) -> unit
(** Calls the function on each set bit index, ascending. *)

(** {1 Word primitives} *)

val popcount64 : int64 -> int
(** Branch-free SWAR population count of one word. *)

val ctz64 : int64 -> int
(** Count of trailing zero bits; [64] for [0L]. *)
