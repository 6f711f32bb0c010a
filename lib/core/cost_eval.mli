(** Incremental (delta) cost evaluation — the paper's §4.2 "costs are
    recomputed just for the modified modules", applied to the whole of
    {!Cost.evaluate}.

    A full {!Cost.evaluate} re-sizes every module's sensor and re-runs
    the degradation model over {e every} gate for each longest-path
    query, even though a {!Partition.move_gates} batch perturbs the
    aggregates of exactly two modules.  [Cost_eval] wraps a partition
    and caches the expensive per-module and per-gate intermediates:

    - the sized {!Iddq_bic.Sensor.t} of each live module;
    - the degraded delay [d(g) · Δ(g)] of each gate.

    A {!move} or {!move_gates} marks only the source and target
    modules dirty; the next {!breakdown} re-sizes just those sensors,
    recomputes the degraded delay of just their member gates, and
    reruns the (cheap, additive) longest-path pass over the cached
    delays.  The O(K)-module sums
    (area, separation, test time, deficit) are reassembled from scratch
    each refresh through {!Cost.of_components} — the same function the
    full evaluator uses, in the same order — so an up-to-date evaluator
    reproduces [Cost.evaluate]'s floats {e bit for bit}; there is no
    drifting accumulator to tolerance-check.  {!self_check} verifies
    exactly that, and {!invalidate} forces the checked full-recompute
    fallback.

    Every instance records its activity (moves, full/delta refreshes,
    cache hits, per-gate work) in an {!Iddq_util.Metrics.t}.

    Not domain-safe: one evaluator must be confined to one domain at a
    time (the shared {!Iddq_util.Metrics.t} may be shared freely). *)

type t

val create :
  ?weights:Cost.weights -> metrics:Iddq_util.Metrics.t -> Partition.t -> t
(** Wrap a partition.  The evaluator takes ownership: mutating [p]
    behind its back invalidates the cache silently (use {!invalidate}
    or go through {!move}).  The nominal delay — move-invariant — is
    computed once here.  Default weights: {!Cost.paper_weights}.
    Every evaluation records into the caller's [metrics]; the
    {!self_check} oracle records nowhere. *)

val partition : t -> Partition.t
(** The wrapped partition (not a copy — read-only access intended;
    mutate it only via {!move}). *)

val weights : t -> Cost.weights

val copy : t -> t
(** Deep copy: partition, caches and dirty state are duplicated, so
    the copy moves and evaluates independently (ES offspring).  The
    metrics instance is shared. *)

val move_gates : t -> int array -> target:int -> unit
(** [move_gates t gates ~target] is {!Partition.move_gates} on the
    wrapped partition: the gates of one module move to [target] as one
    batch, with one multi-source separation BFS per
    {!Iddq_netlist.Graph_algo.multi_width} gates.  Marks the two
    touched modules dirty and the cached breakdown stale, and records
    one [moves] per gate, exactly as moving the gates one by one with
    {!move} does.  An empty batch is a no-op.  Raises like
    {!Partition.move_gates}, before any state changes. *)

val move : t -> gate:int -> target:int -> unit
(** Move a gate to a live module: the one-gate case of {!move_gates}.
    Moving a gate to its own module is a no-op (nothing dirtied,
    nothing recorded).  Raises like {!Partition.move_gate} on a
    dead/invalid target. *)

val breakdown : t -> Cost.breakdown
(** The cost of the current partition.  Served from cache when no move
    happened since the last query (recorded as a hit); otherwise
    refreshes the dirty modules (recorded as a delta evaluation, or as
    a full one after {!create}/{!invalidate}). *)

val penalized : t -> float
(** [(breakdown t).penalized] — the optimizer's objective. *)

val invalidate : t -> unit
(** Drop every cached intermediate: the next {!breakdown} recomputes
    everything from the partition, exactly like a fresh evaluator.
    The escape hatch when the partition was mutated directly. *)

val self_check : t -> (unit, string) result
(** Compare {!breakdown} against an independent {!Cost.evaluate} of
    the same partition.  Any difference in [penalized], [total],
    [bic_delay] or [sensor_area] — they must be {e equal}, not merely
    close — is reported.  Test hook; runs a full evaluation. *)
