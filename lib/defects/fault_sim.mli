(** 64-way bit-parallel IDDQ fault simulation (PPSFP).

    The scalar pipeline ({!Iddq_sim}, the original {!Coverage}) walks
    every fault over every vector with one {!Iddq_patterns.Logic_sim}
    evaluation per vector — O(faults x vectors x gates) on the
    campaign grid's hottest path.  This engine applies the classic
    parallel-pattern single-fault-propagation recipe to the IDDQ
    defect models:

    - the vector set is packed {e once} into 64-wide blocks
      ({!Iddq_patterns.Parallel_sim.pack_all});
    - the {e good machine} is evaluated once for all blocks by the
      striped levelized kernel into one row-major buffer and shared
      across all faults.  The sweeps read only the fault sites, so
      they evaluate under {!Iddq_patterns.Parallel_sim.live_rows}:
      the sites keep their rows, every other node's row is recycled
      once its last reader is evaluated, and the buffer holds the
      nodes live across a level boundary (~8% of the nodes of the
      1M-gate benchmark DAG) rather than every node.  IDDQ activation
      needs no faulty re-simulation, every defect model reduces to
      pure [Int64] word operations over good-machine node words (a
      bridge activates where the two nets differ: one [XOR]; a
      gate-oxide short where the node carries the short's polarity:
      the node word or its complement; a floating gate everywhere: the
      block mask);
    - {e fault dropping}: a detected fault never touches another
      block;
    - fault chunks are claimed round-robin off one atomic index by a
      reusable {!Iddq_util.Domain_pool} (work stealing: dropping makes
      per-fault cost uneven — the rebalanced chunks are counted as
      [steals] in {!Metrics}), the good machine being shared
      read-only.

    This flat engine is the only packed one.  The vector-at-a-time
    path survives as {!detection_matrix_scalar_with}, the reference
    oracle for the differential tests. *)

module Bitvec = Iddq_util.Bitvec
module Metrics = Iddq_util.Metrics

type matrix = {
  n_vectors : int;
  rows : Bitvec.t array;
      (** One packed row per fault: bit [v] set iff vector [v] detects
          it (activation and current threshold both checked). *)
}

val equal : matrix -> matrix -> bool

val measurable : Iddq_core.Partition.t -> Fault.injected -> bool
(** Does the defect current, on top of its module's fault-free
    leakage, reach the technology's IDDQ threshold at that module's
    sensor?  The sensor's verdict is {!Iddq_bic.Detection.strobe} on
    that sum: [Fail] is a detection. *)

val good_values :
  ?metrics:Metrics.t ->
  pool:Iddq_util.Domain_pool.t ->
  Iddq_netlist.Circuit.t ->
  Iddq_patterns.Parallel_sim.packed ->
  Iddq_patterns.Parallel_sim.ba
(** The full good machine: one GC-opaque {e node-major} buffer
    holding {e every} node [id]'s word for block [b] at
    [id * num_blocks + b] (the {!Iddq_patterns.Parallel_sim.all_rows}
    map), filled by the striped levelized kernel
    ({!Iddq_patterns.Parallel_sim.eval_all_into}, levels or stripes
    split over [pool]).  What {!Stuck_at.fault_simulate} runs on: its
    cone kernel reads any node.  The IDDQ sweeps
    ({!detection_matrix}, {!first_detections} and their [_with]
    forms) evaluate the same kernel under a live-row map instead and
    never build this buffer. *)

val run_fault_chunks :
  Iddq_util.Domain_pool.t -> int -> (int -> int -> unit) -> int
(** [run_fault_chunks pool n f] runs [f lo hi] over [0 .. n - 1] cut
    into fixed-size fault chunks claimed round-robin by [pool]'s
    participants, and returns {!Iddq_util.Domain_pool.run}'s steal
    count.  [f] must only write state disjoint per chunk.  The fault
    scheduler of this module and of {!Stuck_at}. *)

(** {1 Partition-thresholded entry points}

    These mirror the scalar {!Iddq_sim.run_partitioned} semantics:
    detection = activation and the module sensor crossing threshold. *)

val detection_matrix :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** The {e full} matrix (no dropping — every detecting vector of every
    fault), for coverage curves and compaction. *)

val first_detections :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  int array
(** Per fault, the index of its first detecting vector ([-1] when
    undetected) — with fault dropping, so a detected fault never
    touches another block. *)

(** {1 Custom-threshold entry points}

    Same engine under an arbitrary measurability predicate (e.g. the
    single-sensor guard-banded threshold of
    {!Iddq_sim.run_single_sensor}). *)

val detection_matrix_with :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix

val first_detections_with :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  int array

(** {1 Reference oracle} *)

val detection_matrix_scalar_with :
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** Vector-at-a-time {!Iddq_patterns.Logic_sim.eval} +
    {!Fault.activated} under an arbitrary measurability predicate —
    bit-for-bit what the packed engine must reproduce: the
    differential-test oracle.  For a partition [p] of circuit [c], the
    oracle of {!detection_matrix} is
    [detection_matrix_scalar_with c ~measurable:(measurable p)]. *)
