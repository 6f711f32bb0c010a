(** End-to-end IDDQ test simulation: apply a vector set, strobe every
    module's BIC sensor after settling, and compare against the
    detection threshold (paper Fig. 1 behaviour over a whole test).

    The single-sensor ("off-chip" style) reference measures the whole
    CUT at once: its pass threshold must sit above the full-chip
    non-defective leakage (with a guard band), so small defect
    currents hide under the leakage — exactly the discriminability
    problem partitioning solves. *)

type detection = {
  injected : Fault.injected;
  detected : bool;
  detecting_vector : int option;  (** Index of the first detecting vector. *)
  module_id : int option;  (** Module whose sensor fired (partitioned runs). *)
}

type result = {
  detections : detection list;
  coverage : float;  (** Fraction of injected defects detected. *)
  vectors_applied : int;
  test_time : float;
      (** Total application time (s): vectors x (D_BIC + settling). *)
}

val run_partitioned :
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  result
(** Each defect is simulated independently (single-fault assumption):
    a vector detects it when the defect is activated and the module
    sensor's measured current reaches the technology threshold.

    Runs on the 64-way packed {!Fault_sim} engine: each defect's
    detecting vector is the first set bit of its row of the full
    {!Fault_sim.detection_matrix} ({!Coverage.first_detection}), on
    the caller's domain.  [metrics] receives the engine's block
    counters and the one cost evaluation that sizes the test time. *)

val run_single_sensor :
  ?metrics:Iddq_util.Metrics.t ->
  Iddq_analysis.Charac.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  result
(** Whole-CUT measurement with one external sensor whose threshold is
    [max I_th (2 * total leakage)] (a guard band of 2) —
    a defect is caught only if leakage + defect current crosses it. *)
