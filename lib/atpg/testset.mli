(** ATPG test-set construction: the fault-dropping generation loop and
    the minimization strategies.

    This is the engine under the {!Atpg} facade — the facade validates
    inputs and wraps these calls in a [result]; machine-facing callers
    (the CLI, the server, the bench) should go through {!Atpg} and its
    structured errors rather than call these directly.

    The loop implements the classic recipe the ROADMAP names: random
    vectors first (cheap coverage), PODEM targeting each fault the
    random set leaves undetected, and {e fault dropping} throughout —
    the packed {!Iddq_defects.Stuck_at.fault_simulate} drops what the
    initial set catches, and each concretized PODEM vector is
    re-simulated against the whole remaining list (the same packed
    simulator on a one-vector set) so one vector can drop many
    faults.  PODEM runs on one {!Podem.prepare}d context per call.  Minimization then operates on the packed
    stuck-at detection matrix
    ({!Iddq_defects.Stuck_at.detection_matrix}) via the bit-parallel
    {!Iddq_defects.Coverage} minimizers. *)

type strategy =
  | Greedy  (** {!Iddq_defects.Coverage.compact} — the baseline. *)
  | Essential
      (** Essential-vector extraction (faults detected by exactly one
          vector) + greedy set-cover over the rest
          ({!Iddq_defects.Coverage.minimize_essential}). *)
  | Refined
      (** Greedy set-cover followed by local refinement passes that
          eliminate vectors made redundant by later picks
          ({!Iddq_defects.Coverage.minimize_refined}); never larger
          than [Greedy]'s selection. *)

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

val strategies : strategy list
(** All three, in declaration order (sweep order for the bench). *)

type stats = {
  random : int;  (** Initial random vectors. *)
  generated : int;  (** Vectors contributed by PODEM. *)
  untestable : int;  (** Faults proven redundant. *)
  aborted : int;  (** PODEM backtrack-limit hits. *)
  targeted : int;  (** PODEM [generate] calls spent. *)
}

type gen = {
  vectors : bool array array;  (** Initial vectors + PODEM top-up, in order. *)
  matrix : Iddq_defects.Coverage.detection_matrix;
      (** Full stuck-at detection matrix of [vectors] over the fault
          list — what the minimization stage runs on. *)
  coverage : float;  (** Detected / total (untestable count as undetected). *)
  efficiency : float;  (** (Detected + untestable) / total. *)
  stats : stats;
  remaining : int;
      (** Faults left untargeted when the budget stopped the loop
          ([0] on a complete run). *)
}

val generate :
  ?max_backtracks:int ->
  ?budget:int ->
  rng:Iddq_util.Rng.t ->
  ?initial:bool array array ->
  Iddq_netlist.Circuit.t ->
  Iddq_defects.Stuck_at.fault list ->
  gen
(** The generation loop.  [budget] (default: unlimited) caps the
    number of PODEM target attempts; when it runs out the loop stops
    with [remaining > 0] and the result covers what was built so far.
    [max_backtracks] is the per-target PODEM limit
    ({!Podem.generate}).  May raise on malformed faults
    ([Invalid_argument], e.g. a pin fault naming an input node) — the
    {!Atpg} facade validates and returns structured errors instead. *)

val minimize : strategy -> Iddq_defects.Coverage.detection_matrix -> int array
(** Selected vector indices, ascending.  Every strategy preserves the
    matrix's full coverage
    ({!Iddq_defects.Coverage.coverage_of_selection} of the selection
    equals the whole set's). *)

val select : bool array array -> int array -> bool array array
(** Materialize a selection: the chosen rows, in selection order. *)
