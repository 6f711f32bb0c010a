(** Cost-aware drive selection — the paper's stated next step
    ("controlling the logic synthesis procedure such that the
    presented cost function is considered at the early beginning",
    §6), realized as a technology-mapping decision.

    After partitioning, each module's sensor is sized for its maximum
    simultaneous transient î_DD,max.  A dual-drive cell library lets
    us shave that peak: gates that {e define} the peak slot but carry
    timing slack are re-mapped to their low-drive variant
    ({!Iddq_celllib.Cell.low_power_variant}), cutting their transient
    contribution ~2x for a bounded local slowdown.  The pass is
    greedy: while the worst module's peak can be reduced without
    violating timing or discriminability, swap the best candidate and
    re-evaluate the full paper cost; stop at the swap budget or when
    no swap improves the cost. *)

type swap = {
  gate : int;  (** Gate index re-mapped to low drive. *)
  module_id : int;
  slot : int;  (** The peak slot that motivated the swap. *)
}

type result = {
  charac : Iddq_analysis.Charac.t;  (** Re-characterized circuit. *)
  partition : Iddq_core.Partition.t;  (** Same assignment, new charac. *)
  swaps : swap list;  (** Applied swaps, in order. *)
  priced : int;  (** Candidate swaps priced with a full cost evaluation. *)
  before : Iddq_core.Cost.breakdown;
  after : Iddq_core.Cost.breakdown;
}

val optimize :
  ?weights:Iddq_core.Cost.weights ->
  ?max_swaps:int ->
  metrics:Iddq_util.Metrics.t ->
  Iddq_core.Partition.t ->
  result
(** [optimize p] runs the greedy pass on a partitioned design.
    [max_swaps] bounds the number of re-mapped gates (default 64).
    A swap may consume at most the gate's slack: the low-drive delay
    increase must be at most [slack g].  The input partition is not
    modified.  Every full cost evaluation — the start, each priced
    candidate swap and the final design — records into the caller's
    [metrics]. *)
