(** Classical stuck-at (voltage/logic) test substrate.

    The paper's premise is that IDDQ testing {e complements} logic
    testing: quiescent-current measurement catches defect classes that
    stuck-at vectors miss.  To quantify that on our workloads we need
    the logic side too: a stuck-at fault list, structural equivalence
    collapsing, and a serial fault simulator with fault dropping.

    Faults live on {e stems} (a net, affecting every reader) and on
    {e pins} (one gate input).  Equivalence collapsing keeps one
    representative per class: a controlling-value pin fault of an
    AND/NAND/OR/NOR gate, and any pin fault of a NOT/BUFF, is
    equivalent to the corresponding output stem fault and is
    dropped — detection sets are exactly equal, so collapsed coverage
    equals full coverage. *)

type fault =
  | Stem of int * bool  (** Node id stuck at the value. *)
  | Pin of { gate : int; pin : int; value : bool }
      (** Input [pin] of the gate driving node id [gate], stuck. *)

val pp_fault : Iddq_netlist.Circuit.t -> Format.formatter -> fault -> unit

val validate_fault : Iddq_netlist.Circuit.t -> fault -> (unit, string) result
(** [Ok ()] when the fault fits the circuit: a stem fault names a node
    in range; a pin fault names a gate (not a primary input) and one of
    its existing input pins.  Otherwise [Error] says which part does
    not fit.  The one rule the simulators, PODEM and the ATPG facade
    check faults by. *)

val full_fault_list : Iddq_netlist.Circuit.t -> fault list
(** Two stem faults per node and two pin faults per gate input. *)

val collapsed_fault_list : Iddq_netlist.Circuit.t -> fault list
(** Equivalence-collapsed subset of {!full_fault_list}. *)

val faulty_eval :
  Iddq_netlist.Circuit.t -> fault -> bool array -> Iddq_patterns.Logic_sim.values
(** Node values under the fault for one input vector. *)

val detects : Iddq_netlist.Circuit.t -> fault -> bool array -> bool
(** Does the vector expose the fault at some primary output? *)

(** A reusable one-block detector: a vector set of 1 to 64 vectors
    (one packed block) checked one fault at a time — the one
    fault-dropping primitive.  {!fault_simulate} walks a vector set
    through one block at a time; the ATPG loop drops its initial
    vectors the same way, checks each fault against the vectors
    generated since its last sweep when the fault comes up for
    targeting, and sweeps the remaining list through the block when
    it fills.

    The faulty machine works by fanout-free regions.  A region root
    is a primary output, or a node read by a number of fanin slots
    other than one (a gate reading a net on two pins counts twice);
    every other node has one reader, and the fault's effect can leave
    its region only through the root.  A query computes the site
    difference (the stuck value of a stem, or the reading gate with
    only the faulty pin overridden, against the good words, masked to
    the real vectors) and climbs it to the root, ANDing it at each
    gate with the side inputs' good sensitization; it stops with no
    detection as soon as the difference is zero.  Otherwise the answer
    is the difference at the root ANDed with the root's
    observability: the output difference of complementing the root in
    every lane, found by one cone walk (re-evaluating, in ascending id
    order, only the gates with a fanin whose faulty words differ, up
    to the last fanout of any differing node) and memoized per root
    until the next {!Block.load}.  So a root is walked at most once
    per load, however many faults its region holds.  The scratch (an
    n-word [Bigarray] of faulty words, an n-word root memo and their
    [int] stamp arrays) is allocated once per detector; a query
    allocates nothing. *)
module Block : sig
  type t
  (** One block's node-major good machine and the cone scratch over
      it, allocated once per circuit.  Holds no vector until the first
      {!load}.  Not for sharing across domains. *)

  val create : Iddq_netlist.Circuit.t -> t

  val load : t -> bool array array -> unit
  (** Pack the vectors into the block and evaluate its good machine,
      replacing the previous load and forgetting every memoized root
      observability.  Raises [Invalid_argument] on an
      empty set, more than 64 vectors, or vectors of the wrong
      width. *)

  val first_lane : t -> fault -> int
  (** The first loaded vector (its index in the last {!load}) that
      detects the fault, or [-1] when none does.  Walks the fault's
      region root only if no earlier query since the load did.  Raises
      [Invalid_argument] on a fault that fails {!validate_fault}. *)

  val detects : t -> fault -> bool
  (** [first_lane t f >= 0]: does some loaded vector detect the
      fault? *)
end

type sim_result = {
  total : int;
  detected : int;
  coverage : float;
  first_vector : int array;  (** Per fault, first detecting vector or -1. *)
}

val fault_simulate :
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_netlist.Circuit.t ->
  vectors:bool array array ->
  faults:fault list ->
  sim_result
(** 64-way bit-parallel single-fault propagation with fault dropping,
    on the caller's domain: the vector set is walked 64 vectors at a
    time through one {!Block}, and a fault detected in one block is
    not checked against later ones.  Within a block, each live fault
    climbs its fanout-free region and each region root reached is
    walked once.  [metrics] receives the block
    count ([sim_blocks]), one fault-block per (live fault, block)
    check ([sim_fault_blocks]) and the detected count
    ([sim_faults_dropped]).  Raises [Invalid_argument] on a fault that
    fails {!validate_fault}, before any block is loaded. *)

val detection_matrix :
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_netlist.Circuit.t ->
  vectors:bool array array ->
  faults:fault list ->
  Fault_sim.matrix
(** The {e full} packed detection matrix (no dropping — every
    detecting vector of every fault, one {!Iddq_util.Bitvec} row per
    fault in list order).  The stuck-at counterpart of
    {!Fault_sim.detection_matrix}, on the caller's domain: the
    node-major good machine of every block is evaluated once
    ({!Iddq_patterns.Parallel_sim.eval_all_into} under
    {!Iddq_patterns.Parallel_sim.all_rows}).  The blocks are then
    taken in walk groups of up to 8, group-major: within a group every
    fault climbs its fanout-free region as in {!Block}, and each
    region root reached is walked once for the whole group and
    memoized until the next group (lanes are independent, so a node
    that differs on one block of a walk carries exact faulty words on
    the others, and the output differences stay masked to the real
    vectors).  Because
    {!Coverage.detection_matrix}
    is publicly equal to {!Fault_sim.matrix}, every {!Coverage} query
    and minimizer runs on this matrix unchanged — it is what the ATPG
    test-set minimization stage ({!val-Coverage.compact},
    {!val-Coverage.minimize_essential}, {!val-Coverage.minimize_refined})
    operates on. *)
