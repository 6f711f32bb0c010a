(** Greedy first-improvement refinement (Kernighan–Lin-flavoured
    ablation comparator): repeatedly scan the boundary gates and apply
    any single-gate move that lowers the penalized cost, until a full
    scan finds none or the pass budget is exhausted.

    Trial moves are evaluated through the incremental
    {!Iddq_core.Cost_eval} — each try recomputes only the two touched
    modules — with results identical to full evaluation, so the scan
    order and accepted moves are unchanged from the naive
    implementation. *)

val optimize :
  ?weights:Iddq_core.Cost.weights ->
  metrics:Iddq_util.Metrics.t ->
  ?max_passes:int ->
  Iddq_core.Partition.t ->
  Iddq_core.Partition.t * Iddq_core.Cost.breakdown
(** Deterministic.  Default [max_passes] is 20.  Works on a copy.
    Every evaluation records into the caller's [metrics]. *)
