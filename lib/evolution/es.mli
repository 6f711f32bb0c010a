(** Generic evolution strategy (paper §4.1, after Rechenberg/Schwefel).

    One cycle: {e recombination} (here plain duplication — the paper
    found one parent per child sufficient), {e mutation} (λ mutated
    children and χ Monte-Carlo children per parent), and {e selection}
    (parents older than the maximum lifetime ω are discarded; the μ
    cheapest individuals survive).  Each descendant carries its own
    mutation step width [m], itself mutated with a normal perturbation
    of standard deviation ε. *)

type params = {
  mu : int;  (** Number of parents μ. *)
  lambda : int;  (** Mutated children per parent λ. *)
  chi : int;  (** Monte-Carlo children per parent χ. *)
  omega : int;  (** Maximum lifetime ω (generations). *)
  m_init : int;  (** Initial step width [m] (max gates moved). *)
  epsilon : float;  (** Std-dev of the step-width mutation ε. *)
  max_generations : int;
  stall_generations : int;
      (** Stop after this many generations without improvement of the
          best cost ("until the results converged", §5.1). *)
  domains : int;
      (** Domains used to build and cost offspring in parallel (the
          μ·(λ+χ) candidates of a generation are independent), on one
          {!Iddq_util.Domain_pool} opened for the whole run.  The
          draws stay serial: every child's plan ([mutate] /
          [monte_carlo]) runs on the calling domain in a fixed order.
          Copying the parent, replaying the plan on the copy and
          costing it run on the pool, so the run is deterministic and
          identical for every value of [domains].  With [domains > 1]
          the problem's [copy] must be safe to call concurrently on one
          parent, and [cost] and the build steps on distinct
          solutions.  Default 1 (fully sequential). *)
}

val default_params : params
(** μ=4, λ=7, χ=2, ω=5, m=4, ε=1.5, 500 generations max, stall 60,
    1 domain. *)

val validate : params -> (unit, string) result
(** [Ok ()] when [run] accepts the parameters, else [Error] naming the
    first violated bound: [mu >= 1], [lambda >= 0], [chi >= 0],
    [lambda + chi >= 1], [omega >= 1], [m_init >= 1], [epsilon >= 0],
    [max_generations >= 0], [domains >= 1].  A population of
    Monte-Carlo children only ([lambda = 0], [chi > 0]) is valid. *)

type 'a problem = {
  copy : 'a -> 'a;
  cost : 'a -> float;
      (** Smaller is better; constraint violations must already be
          folded in (penalty). *)
  mutate : Iddq_util.Rng.t -> step:int -> 'a -> 'a -> unit;
      (** [mutate rng ~step parent] plans a neighbourhood mutation with
          the given step width: it makes every rng draw, only reads
          [parent], and returns the build step that applies the
          mutation in place to a copy of [parent]. *)
  monte_carlo : Iddq_util.Rng.t -> 'a -> 'a -> unit;
      (** Plans a large random jump, same convention as [mutate]. *)
}

type 'a individual = {
  solution : 'a;
  cost : float;
  age : int;
  step : int;
}

type generation_report = {
  generation : int;
  best_cost : float;
  mean_cost : float;
  population : int;
}

val run :
  ?on_generation:(generation_report -> unit) ->
  params ->
  Iddq_util.Rng.t ->
  'a problem ->
  'a list ->
  'a individual * generation_report list
(** [run params rng problem starts] evolves from the given start
    solutions (at least one; they are copied, the inputs are not
    mutated).  Returns the best individual ever seen and the
    per-generation trace (oldest first).
    @raise Invalid_argument when {!validate} rejects [params] or
    [starts] is empty. *)
