(** Simulated annealing over partitions — one of the classical
    alternatives the paper lists (§4) for this class of problem, used
    here as an optimizer-ablation comparator.  Moves are single
    boundary-gate transfers (the same neighbourhood as the ES
    mutation); acceptance follows Metropolis with geometric cooling.

    Cost queries go through the incremental {!Iddq_core.Cost_eval}:
    each proposal re-evaluates only the two modules it touches instead
    of the whole circuit, reproducing {!Iddq_core.Cost.evaluate}
    exactly. *)

type params = {
  initial_temperature : float;
  cooling : float;  (** Geometric factor per step, in (0,1). *)
  steps : int;  (** Total proposed moves. *)
}

val default_params : params
(** T0 = 5.0, cooling 0.999, 20_000 steps. *)

val optimize :
  ?weights:Iddq_core.Cost.weights ->
  ?params:params ->
  metrics:Iddq_util.Metrics.t ->
  ?on_move:
    (step:int -> gate:int -> src:int -> target:int -> accepted:bool -> unit) ->
  rng:Iddq_util.Rng.t ->
  Iddq_core.Partition.t ->
  Iddq_core.Partition.t * Iddq_core.Cost.breakdown
(** Starts from a copy of the given partition; returns the best
    visited partition and its cost breakdown.  Every evaluation, the
    final one included, records into the caller's [metrics].
    [on_move] is called for every {e proposed} move with its acceptance
    verdict; a proposal never has [src = target]. *)
