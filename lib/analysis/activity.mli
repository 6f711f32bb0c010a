(** Realized switching activity from logic simulation.

    The paper's î_DD,max estimator (§3.1) is deliberately pessimistic:
    every gate that {e can} switch in a slot is assumed to switch.
    This module measures what a concrete vector sequence actually
    does: between two consecutive vectors, a gate contributes to slot
    [t] if it toggles and can switch at [t] (it draws its transient at
    its switching depth).  Comparing the two quantifies the
    estimator's pessimism — the validation experiment of
    EXPERIMENTS.md. *)

type t = {
  realized_profile : float array;
      (** Worst realized per-slot current over all vector pairs (A). *)
  realized_max : float;
      (** Max over slots — the realized counterpart of î_DD,max. *)
  toggles_per_pair : int array;
      (** Gates toggled for each consecutive vector pair. *)
}

val measure :
  Charac.t -> gates:int array -> vectors:bool array array -> t
(** [measure ch ~gates ~vectors] simulates the vector sequence and
    accumulates the realized switching profile of the given gate
    group.  Needs at least two vectors, each of [num_inputs] values;
    raises [Invalid_argument] otherwise. *)

val pessimism_ratio : Charac.t -> gates:int array -> t -> float
(** Estimated î_DD,max divided by the realized maximum; [infinity]
    when nothing toggled.  Always >= 1 up to rounding: the estimator
    upper-bounds every realization. *)
