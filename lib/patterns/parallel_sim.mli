(** Bit-parallel logic simulation: 64 vectors per pass.

    The classic PPSFP trick — each net holds an [int64] whose bit [k]
    is the net's value under vector [k], and every gate evaluates all
    64 vectors with a couple of machine instructions.  Fault
    simulation over realistic vector sets gets ~50x faster than
    vector-at-a-time simulation ({!Iddq_defects.Stuck_at} uses this
    internally). *)

val pack : bool array array -> start:int -> int64 array
(** [pack vectors ~start] packs vectors [start .. start+63] (fewer at
    the tail) into one word per circuit input: bit [k] of word [i] is
    input [i] of vector [start + k].

    [start] may equal the vector count: the block is empty and every
    word is [0L] — in particular, packing an empty vector set at
    [start = 0] is a valid no-op returning [[||]], so zero-pattern
    simulation needs no special-casing in callers.  Raises
    [Invalid_argument] if [start < 0], [start] exceeds the vector
    count, or the vectors have inconsistent widths. *)

val active_mask : bool array array -> start:int -> int64
(** Bits corresponding to real vectors in the packed block (all-ones
    except at the tail; [0L] for an empty block — same [start] range
    as {!pack}). *)

(** {1 Whole-set packing}

    Fault simulation re-reads the same vector set once per fault (or
    per fault chunk); packing it {e once} into blocks amortizes the
    bit transposition across every fault and every [Domain]. *)

type packed
(** An immutable vector set packed into 64-wide blocks. *)

val pack_all : bool array array -> packed
(** Pack the whole set: block [b] holds vectors [64b .. 64b+63].
    Raises [Invalid_argument] on inconsistent vector widths.  An empty
    set packs to zero blocks. *)

val n_vectors : packed -> int
val num_blocks : packed -> int

val block : packed -> int -> int64 array
(** The packed input words of one block ({!pack} of its range).  The
    returned array must not be mutated. *)

val block_mask : packed -> int -> int64
(** {!active_mask} of the block: all-ones except at the tail. *)

(** {1 Flat GC-free kernel}

    The hot path: packed blocks live in one block-major [Bigarray] of
    [int64] words, and the striped levelized kernels below walk the
    circuit's CSR arrays in {!Iddq_netlist.Level_schedule} order,
    writing node words into a caller-owned node-major [Bigarray] — a
    full evaluation allocates {e zero} minor-heap words (asserted by
    the kernel tests).  The stuck-at faulty machine
    ({!Iddq_defects.Stuck_at}) reads the same node-major good matrix
    and re-evaluates only a fault's differing cone in per-chunk
    [Bigarray] scratch.  The boxed {!eval} below stays only as the
    reference the kernels are tested against. *)

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The word-buffer type every flat kernel trades in. *)

val packed_words : packed -> ba
(** The packed input words, flattened block-major: block [b]'s word
    for input [i] sits at [b * num_inputs + i].  Borrowed — do not
    mutate. *)

(** {1 Striped levelized kernels}

    The multi-word evaluation engine: node-major value matrices hold
    [stride] consecutive block words per node ([id * stride + blk]),
    and one gate visit evaluates [width] consecutive blocks — one CSR
    traversal (dispatch byte, fanin indices) amortized over [width]
    words, every fanin read a contiguous run (at width 8, exactly one
    fully-used 64-byte cache line).  Independent stripes, and
    independent gates of one level within a stripe, may evaluate on
    different domains concurrently: all writes are disjoint. *)

val seed_inputs_striped :
  Iddq_netlist.Circuit.t ->
  packed ->
  block0:int ->
  width:int ->
  stride:int ->
  dst:ba ->
  unit
(** Transpose the packed input words of blocks
    [block0 .. block0 + width - 1] into the node-major matrix rows of
    [dst] ([input i, block b] at [i * stride + b]).  Allocation-free.
    Raises [Invalid_argument] on a bad block range, an input-width
    mismatch, a stride smaller than [block0 + width], or a too-small
    destination. *)

val eval_order_range_striped :
  Iddq_netlist.Circuit.t ->
  order:int array ->
  lo:int ->
  hi:int ->
  block0:int ->
  width:int ->
  stride:int ->
  dst:ba ->
  unit
(** Evaluate gates [order.(lo) .. order.(hi - 1)] over blocks
    [block0 .. block0 + width - 1] of the node-major matrix [dst].
    The caller guarantees every fanin of the slice already holds its
    value for the same blocks — any slice of a topological [order]
    whose prefix is complete qualifies (whole prefixes, or one level's
    sub-range once all earlier levels are done).  Allocation-free.
    Raises [Invalid_argument] on bad ranges or a zero-fanin gate. *)

val eval_stripe_into :
  Iddq_netlist.Circuit.t ->
  Iddq_netlist.Level_schedule.t ->
  packed ->
  block0:int ->
  width:int ->
  stride:int ->
  dst:ba ->
  unit
(** Seed the stripe's inputs and evaluate the whole circuit in level
    order for [width] consecutive blocks.  Allocation-free (the
    schedule comes in explicitly — resolve it once with
    {!Iddq_netlist.Level_schedule.of_circuit} and reuse). *)

val eval_all_into :
  ?pool:Iddq_util.Domain_pool.t ->
  ?stripe:int ->
  Iddq_netlist.Circuit.t ->
  packed ->
  dst:ba ->
  unit
(** Evaluate {e every} packed block into the node-major matrix [dst]
    (node [id], block [b] at [id * num_blocks p + b]; [dst] must hold
    [num_nodes * num_blocks] words).  Work is cut into stripes of
    [stripe] blocks (clamped to the block count; default [8], one
    cache line of words per gate visit).  Without a [pool] (or with a
    1-domain pool) the stripes evaluate serially on the caller.  With a
    pool, whole stripes are distributed when there are at least as many
    stripes as domains; otherwise each level of each stripe is split
    across the pool with a barrier per level, narrow levels (under ~1k
    gates) running inline because the job-publish cost would dominate.
    Raises [Invalid_argument] on a bad [stripe], a too-small [dst], or
    a zero-fanin gate. *)

val eval_word : Iddq_netlist.Gate.kind -> int64 array -> int64
(** One gate over packed fanin words.  Raises [Invalid_argument] when
    the word count violates the gate's arity (in particular zero
    fanins, which a silent fold would turn into a constant). *)

val eval : Iddq_netlist.Circuit.t -> int64 array -> int64 array
(** [eval c packed_inputs] returns one word per node.  The input array
    must have [num_inputs] words. *)
