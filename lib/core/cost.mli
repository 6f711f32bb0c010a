(** The paper's global cost function C(Π) = Σ α_i c_i(Π) (§3, §5.1).

    The five metrics:
    - [c1 = log A(Π)], sensor area, [A = Σ_i (A0 + A1 / R_s,i)];
    - [c2 = (D_BIC − D) / D], relative delay overhead;
    - [c3 = log S(Π)], summed intra-module separation;
    - [c4 = log(Σ_i (D_BIC + Δ(τ_i)) / 1 ns)], test-application time
      (per-module measurement times on a log scale, like the other
      extensive metrics; the paper's exact aggregation is lost to
      OCR — DESIGN.md §2);
    - [c5 = K], the number of modules (test clock/output routing).

    The paper's §5.1 weights are
    [C = 9 c1 + 1e5 c2 + c3 + c4 + 10 c5]. *)

type weights = {
  w_area : float;
  w_delay : float;
  w_separation : float;
  w_test_time : float;
  w_module_count : float;
}

val paper_weights : weights
(** (9, 1e5, 1, 1, 10). *)

val equal_weights : weights
(** All 1 — used by the weight-sensitivity ablation. *)

type breakdown = {
  c1_area : float;
  c2_delay : float;
  c3_separation : float;
  c4_test_time : float;
  c5_module_count : float;
  total : float;  (** Weighted sum. *)
  feasible : bool;  (** Γ(Π). *)
  penalized : float;
      (** [total] plus a large smooth penalty when infeasible — what
          the optimizer minimizes. *)
  sensor_area : float;  (** A(Π), linear units. *)
  nominal_delay : float;  (** D (s). *)
  bic_delay : float;  (** D_BIC (s). *)
  test_time_per_vector : float;
      (** One vector with every sensor strobed in parallel (s). *)
  min_discriminability : float;
}

val evaluate :
  ?weights:weights -> ?metrics:Iddq_util.Metrics.t -> Partition.t -> breakdown
(** Cost of a partition.  Uses only the partition's incrementally
    maintained aggregates plus one longest-path pass, so it is cheap
    enough for the optimizer's inner loop.  Default weights:
    {!paper_weights}.  Records one full evaluation in [metrics] when
    one is given, and nowhere otherwise. *)

val relative_delay : nominal_delay:float -> bic_delay:float -> float
(** [c2 = (D_BIC − D) / D], 0 when [D = 0]. *)

val of_components :
  ?weights:weights ->
  sensors:(int * Iddq_bic.Sensor.t) list ->
  bic_delay:float ->
  nominal_delay:float ->
  Partition.t ->
  breakdown
(** Assemble a {!breakdown} from precomputed expensive components: the
    per-module sensor sizings (in ascending module-id order, as
    returned by {!Partition.sensors}) and the two critical-path delays.
    [evaluate] is [of_components] applied to freshly computed
    components; [Cost_eval] applies it to cached ones.  Because both
    paths share this function — and assemble the same component values
    in the same order — an up-to-date cache reproduces [evaluate]'s
    result exactly, not merely approximately.  Records nothing in
    {!Iddq_util.Metrics}; callers account for their own work. *)

val infeasibility_penalty : float
(** Scale of the penalty added per unit of constraint deficit. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
