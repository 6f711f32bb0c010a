(** Bit-parallel logic simulation: 64 vectors per pass.

    The classic PPSFP trick — each net holds an [int64] whose bit [k]
    is the net's value under vector [k], and every gate evaluates all
    64 vectors with a couple of machine instructions.  Fault
    simulation over realistic vector sets gets ~50x faster than
    vector-at-a-time simulation ({!Iddq_defects.Stuck_at} uses this
    internally). *)

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

val block_mask : packed -> int -> int64
(** Bits backed by real vectors in block [b]: all-ones except at the
    tail. *)

(** {1 Flat GC-free kernel}

    The hot path: packed blocks live in one block-major [Bigarray] of
    [int64] words, and the striped levelized kernel ({!eval_all_into})
    walks the circuit's CSR arrays in its level order
    ({!Iddq_netlist.Circuit.Csr.level_order}),
    writing node words into a caller-owned row-major [Bigarray] whose
    rows a {!row_map} assigns to nodes — a full evaluation allocates
    {e zero} minor-heap words (asserted by the kernel tests).  The
    stuck-at faulty machine ({!Iddq_defects.Stuck_at}) reads the
    good matrix under {!all_rows} and re-evaluates only a fault's
    differing cone in preallocated [Bigarray] scratch; the IDDQ sweeps
    evaluate under {!live_rows}.  The kernel is tested bit by bit
    against {!Logic_sim.eval}, one vector at a time: the one logic
    reference. *)

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The word-buffer type every flat kernel trades in. *)

(** {1 Row maps}

    Which matrix row holds which node.  One kernel serves both maps:
    it reads and writes node [id]'s words at
    [rows.(id) * stride + blk]. *)

type row_map = private {
  rows : int array;  (** Node id -> row, length [num_nodes]. *)
  n_rows : int;  (** Rows the matrix needs: every entry is below it. *)
}

val all_rows : Iddq_netlist.Circuit.t -> row_map
(** The identity map: node [id] in row [id], [num_nodes] rows.  Every
    node's words survive the evaluation — what a reader of arbitrary
    nodes (the stuck-at cone kernel of {!Iddq_defects.Stuck_at})
    needs. *)

val live_rows : Iddq_netlist.Circuit.t -> keep:int array -> row_map
(** Recycled rows: a node's row is handed to a later gate once its
    last reader has been evaluated, so the matrix holds only the nodes
    live across a level boundary.  Built in two linear passes over the
    level order: the level of each node's last reader, then rows off a
    free stack, level by level, the rows of nodes whose last reader is
    at level [l] (and of gates nobody reads) going back on it after
    level [l].  A row freed after level [l] is handed out only at a
    level above [l].  Inputs hold rows [0 .. num_inputs - 1]; each
    node of [keep] keeps its row, never handed out again, so its
    words are valid after the evaluation — no other node's are in
    general.  Raises [Invalid_argument] on a [keep] id out of
    range. *)

(** {1 Striped levelized evaluation}

    The evaluation engine: row-major value matrices hold [stride]
    consecutive block words per row ([rows.(id) * stride + blk]), and
    one gate visit evaluates a stripe of up to 8 consecutive blocks —
    one CSR traversal (dispatch byte, fanin indices) amortized over
    the stripe's words, every fanin read a contiguous run (at 8 words,
    exactly one fully-used 64-byte cache line).  A stripe seeds its
    inputs and walks the whole level order; stripes write disjoint
    columns, so they evaluate on different domains with no barrier. *)

val eval_all_into :
  ?pool:Iddq_util.Domain_pool.t ->
  Iddq_netlist.Circuit.t ->
  packed ->
  rows:row_map ->
  dst:ba ->
  unit
(** Evaluate {e every} packed block into the matrix [dst] (node [id],
    block [b] at [rows.(id) * num_blocks p + b]; [dst] must hold
    [rows.n_rows * num_blocks] words).  The blocks are cut into
    stripes of at most 8; without a [pool] they evaluate serially on
    the caller, allocating nothing, and with one they are the chunks of
    one {!Iddq_util.Domain_pool.run}.  Raises [Invalid_argument] on a
    map of another circuit, a too-small [dst], an input-width mismatch
    (checked only when there are blocks: an empty set packs to zero
    blocks of width 0), or a zero-fanin gate. *)
