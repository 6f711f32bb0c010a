(** Start-population construction (paper §4.2).

    The appropriate module size is first estimated from the simplified
    cost picture with average parameters: area and module count favour
    the largest module that still meets the discriminability
    constraint, so the target size is
    [margin * I_DDQ,th / (d * mean gate leakage)].
    Gates are then clustered into modules by chains grown from gates
    close to a primary input toward the primary outputs; a module is
    closed when it reaches the target size, and a new chain seed
    prefers free gates adjacent to the open module so modules stay
    connected.  Different random tie-breaking yields the different
    start partitions of the population.

    Each random choice is one [Rng.int] over the candidate count,
    picking the candidate a list in the walk's fixed order would hold
    at that index; Fenwick trees over the open module's members and
    over the level-major gate order find it, so a placement costs
    O(degree * log n) and the walk never scans all gates. *)

val target_module_size :
  ?margin:float -> Iddq_analysis.Charac.t -> int
(** Largest feasible module size derated by [margin] (default 0.75),
    clipped to [1 .. num_gates]. *)

val chain_partition :
  rng:Iddq_util.Rng.t ->
  ?module_size:int ->
  Iddq_analysis.Charac.t ->
  Iddq_core.Partition.t
(** One chain-clustered start partition.  [module_size] defaults to
    {!target_module_size}. *)

val population :
  rng:Iddq_util.Rng.t ->
  ?module_size:int ->
  count:int ->
  Iddq_analysis.Charac.t ->
  Iddq_core.Partition.t list
(** [count] start partitions with independent tie-breaking: the same
    partitions, from the same rng draws, as [count] successive
    {!chain_partition} calls, but built by one
    {!Iddq_core.Partition.create_many} sweep. *)
