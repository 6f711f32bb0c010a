(** Adaptation of the evolution strategy to PART-IDDQ (paper §4.2).

    Mutation: pick a source module, determine its boundary gates,
    move [m_move ~ U{1 .. min(m, m_boundary)}] randomly chosen
    boundary gates each into a (randomly chosen) module it is
    connected with.  Monte-Carlo descendants move a random number of
    gates of a random module into a random module, deleting the source
    when emptied — a larger jump that keeps the search out of local
    minima.

    The ES evolves {!Iddq_core.Cost_eval.t} individuals.  Planning a
    child ({!mutate}, {!monte_carlo}) makes every rng draw on the
    calling domain and only reads the parent; it yields a {!journal}
    of moves.  Building the child — copying the parent evaluator and
    replaying the journal — and costing it run on the pool
    ({!Es.params.domains}).  A mutation's journal replays move by
    move through {!Iddq_core.Cost_eval.move}; a Monte-Carlo journal
    (gates of one module into one target) replays as one
    {!Iddq_core.Cost_eval.move_gates} batch, one multi-source
    separation BFS per 126 moved gates.  A child's cost is a delta
    evaluation touching only the modules its moves changed (one
    refresh per child, however many gates moved) instead of a full
    {!Iddq_core.Cost.evaluate}.  Offspring evaluators are fully
    independent (deep-copied partitions and caches; the shared
    {!Iddq_util.Metrics.t} is atomic). *)

type journal = (int * int) array
(** Planned [(gate, target)] moves, in the order they apply; replaying
    them with {!Iddq_core.Partition.move_gate} (or
    {!Iddq_core.Cost_eval.move}) on the planned partition performs the
    mutation. *)

val mutate : Iddq_util.Rng.t -> step:int -> Iddq_core.Partition.t -> journal
(** Plans a mutation of [p] without moving anything.  Each chosen
    boundary gate picks its target with
    {!Iddq_core.Partition.neighbour_modules} over [p] seen through the
    moves planned before it, so the plan equals an in-place mutation
    move for move and draw for draw.  Empty when the partition has a
    single module or the chosen source has no boundary gates after a
    few retries. *)

val monte_carlo : Iddq_util.Rng.t -> Iddq_core.Partition.t -> journal
(** Plans a Monte-Carlo jump; same convention as {!mutate}. *)

val problem : unit -> Iddq_core.Cost_eval.t Es.problem
(** The {!Es.problem} instance over incremental evaluators: [cost] is
    {!Iddq_core.Cost_eval.penalized}, and the build steps replay the
    planned journal (mutations through {!Iddq_core.Cost_eval.move},
    Monte-Carlo jumps through {!Iddq_core.Cost_eval.move_gates});
    weights and metrics are carried by each evaluator (set at
    {!Iddq_core.Cost_eval.create}, inherited by copies). *)

val optimize :
  ?weights:Iddq_core.Cost.weights ->
  metrics:Iddq_util.Metrics.t ->
  ?params:Es.params ->
  ?on_generation:(Es.generation_report -> unit) ->
  rng:Iddq_util.Rng.t ->
  starts:Iddq_core.Partition.t list ->
  unit ->
  Iddq_core.Partition.t Es.individual * Es.generation_report list
(** Runs the ES over partitions from the given start population (the
    inputs are copied, not mutated) and returns the best individual
    with its solution converted back to a plain partition.  Every
    evaluation records into the caller's [metrics]. *)
