(** Queries on the detection matrix: coverage growth curves, first
    detections (what {!Iddq_sim} reports), and greedy test-set
    compaction.

    The paper assumes "a precomputed test vector set"; these tools
    build and trim such sets for the IDDQ defect models — the test
    time saved by compaction multiplies directly into the paper's
    test-application-time metric, since every dropped vector saves
    [D_BIC + Delta(tau)].

    The matrix is built by the 64-way bit-parallel engine
    ({!Fault_sim.detection_matrix}) and stored packed (one
    {!Iddq_util.Bitvec} row per fault); every query below runs on word
    [AND]/popcount passes rather than boxed bool scans. *)

type detection_matrix = Fault_sim.matrix
(** For each fault, the packed set of vectors that detect it
    (activation and current threshold both checked).  The equation
    with {!Fault_sim.matrix} is public so other detection substrates —
    the stuck-at matrix {!Stuck_at.detection_matrix} that the ATPG
    test-set minimizer runs on — share these queries and minimizers
    without conversion. *)

val num_detectable : detection_matrix -> int
val num_faults : detection_matrix -> int
val num_vectors : detection_matrix -> int

val detects : detection_matrix -> fault:int -> vector:int -> bool
(** One matrix bit (row order = the fault-list order). *)

val coverage_curve : detection_matrix -> float array
(** Entry [k] is the fault coverage achieved by the first [k+1]
    vectors in their given order (length = vector count). *)

val first_detection : detection_matrix -> int array
(** Per fault, the index of its first detecting vector, [-1] when
    undetectable by the set.  [-1] is the {e only} sentinel: every
    other entry is a valid vector index in [0, num_vectors). *)

val compact : detection_matrix -> int array
(** Greedy set-cover vector selection: repeatedly keep the vector
    detecting the most still-uncovered faults, until coverage equals
    the full set's.  Returns the kept vector indices, ascending.
    Typically a small fraction of a random set.  Gains are
    [popcount (column AND uncovered)] over a transposed packed matrix;
    the selection is identical to the scalar greedy loop's. *)

val coverage_of_selection : detection_matrix -> int array -> float
(** Coverage achieved by an arbitrary subset of vector indices.  The
    selection is treated as a set: duplicates and ordering are
    irrelevant.  Every index must lie in [0, num_vectors);
    out-of-range indices raise [Invalid_argument].  An empty selection
    of a non-empty fault set yields [0.]; with no faults the coverage
    is vacuously [1.]. *)

(** {1 Test-set minimization}

    Heuristic minimizers in the spirit of Thamarai et al.
    (arXiv:1009.6186), all preserving the full set's coverage: every
    returned selection detects {e exactly} the faults the whole vector
    set detects ([coverage_of_selection m sel =
    num_detectable m / num_faults m]).  {!compact} above is the greedy
    set-cover baseline; the two below trade a little more work for
    selections never larger — and often smaller — than greedy's.  All
    three run on the packed matrix (word [AND]/popcount passes). *)

val essential_vectors : detection_matrix -> int array
(** Vectors that are the {e only} detector of some fault (fault row
    popcount = 1) — any full-coverage selection must contain them.
    Ascending, duplicate-free. *)

val minimize_essential : detection_matrix -> int array
(** Essential-vector extraction first, then greedy set-cover over the
    faults the essentials leave uncovered.  Ascending.  Because the
    forced essentials often cover much of the matrix as a side effect,
    this can undercut plain greedy where greedy's largest-column bait
    is suboptimal. *)

val refine : detection_matrix -> int array -> int array
(** Local refinement passes: repeatedly drop a {e redundant} selected
    vector (every fault it detects is detected by another selected
    vector) until none remains, rescanning after each pass.  The
    result is a subset of the input selection with identical coverage;
    selections out of range raise [Invalid_argument]. *)

val minimize_refined : detection_matrix -> int array
(** {!compact} followed by {!refine}: greedy set-cover whose late
    picks may have made early picks redundant, with those early picks
    then eliminated.  Never larger than {!compact}'s selection, at
    equal coverage. *)
