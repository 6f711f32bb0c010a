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

type sim_result = {
  total : int;
  detected : int;
  coverage : float;
  first_vector : int array;  (** Per fault, first detecting vector or -1. *)
}

val fault_simulate :
  ?domains:int ->
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_netlist.Circuit.t ->
  vectors:bool array array ->
  faults:fault list ->
  sim_result
(** 64-way bit-parallel serial fault simulation with fault dropping (a
    detected fault is not re-simulated): vectors packed once, the
    node-major good machine ({!Fault_sim.good_values}) shared across
    faults, fault chunks claimed over a [domains]-wide (default 1)
    {!Iddq_util.Domain_pool}.

    The faulty machine is cone-restricted, and one walk of a fault's
    cone covers a range of consecutive blocks — one block here, where
    a fault stops at its first detecting block, up to 8 in
    {!detection_matrix}.  A walk computes the site words (the stuck
    value of a stem, or the reading gate with only the faulty pin
    overridden) and stops at once when they equal the good ones on
    every real vector of the range.  Otherwise it re-evaluates, in
    ascending id order, only the gates with a fanin whose faulty words
    differ on some block of the range, up to the last fanout of any
    differing node, and ORs the differences at the outputs, one word
    per block.  Its scratch is an n-word [Bigarray] per block of the
    range and one [int] stamp array, used by one fault chunk at a time
    and reused by the next; a sweep makes at most one per pool
    participant and allocates a few words per fault.  Raises
    [Invalid_argument] on a fault that fails {!validate_fault}. *)

val undetected :
  Iddq_netlist.Circuit.t ->
  vectors:bool array array ->
  faults:fault list ->
  fault list
(** The faults no vector detects, in order: {!fault_simulate} on one
    domain, recording no counters. *)

(** A reusable one-block detector: a vector set of 1 to 64 vectors
    (one packed block) checked one fault at a time.  The ATPG loop
    checks each fault against the vectors generated since its last
    sweep when the fault comes up for targeting, rather than sweeping
    the whole remaining list after every vector. *)
module Block : sig
  type t
  (** One block's node-major good machine and a {!fault_simulate}
      cone scratch over it (width 1), allocated once per circuit.
      Holds no vector until the first {!load}.  Not for sharing across
      domains. *)

  val create : Iddq_netlist.Circuit.t -> t

  val load : t -> bool array array -> unit
  (** Pack the vectors into the block and evaluate its good machine,
      replacing the previous load.  Raises [Invalid_argument] on an
      empty set, more than 64 vectors, or vectors of the wrong
      width. *)

  val detects : t -> fault -> bool
  (** Does some loaded vector detect the fault?  The same cone kernel
      as {!fault_simulate}, so [detects t f] is [true] exactly when
      {!fault_simulate} over the loaded vectors detects [f].  Raises
      [Invalid_argument] on a fault that fails {!validate_fault}. *)
end

val detection_matrix :
  ?domains:int ->
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_netlist.Circuit.t ->
  vectors:bool array array ->
  faults:fault list ->
  Fault_sim.matrix
(** The {e full} packed detection matrix (no dropping — every
    detecting vector of every fault, one {!Iddq_util.Bitvec} row per
    fault in list order).  The stuck-at counterpart of
    {!Fault_sim.detection_matrix}, walking each fault's cone once per
    8 blocks (lanes are independent, so a node that differs on one
    block of a walk carries exact faulty words on the others, and the
    output differences stay masked to the real vectors).  Because
    {!Coverage.detection_matrix}
    is publicly equal to {!Fault_sim.matrix}, every {!Coverage} query
    and minimizer runs on this matrix unchanged — it is what the ATPG
    test-set minimization stage ({!val-Coverage.compact},
    {!val-Coverage.minimize_essential}, {!val-Coverage.minimize_refined})
    operates on. *)
