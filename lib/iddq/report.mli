(** Table-1-style reporting: the measurements of one partition run,
    their one JSON encoding, and the rows of the paper's evaluation. *)

(** {1 The run record} *)

type run = {
  modules : int;
  module_sizes : int list;
      (** Final module sizes in ascending module-id order; what seeds
          a dependent standard job's reference sizes. *)
  generations : int;  (** ES generations run (0 for one-shot methods). *)
  cost : float;  (** The penalized cost. *)
  feasible : bool;
  sensor_area : float;
  nominal_delay : float;
  bic_delay : float;
  test_time_per_vector : float;
  min_discriminability : float;
}
(** What one partition run measured: every figure the service's
    [partition] reply, the campaign store and Table 1 report.  The
    names after [generations] are those of {!Iddq_core.Cost.breakdown}. *)

val run_of : Pipeline.t -> run

val run_fields : run -> (string * Iddq_util.Json.t) list
(** The one encoding of a run: one JSON member per field, under the
    field's name, in declaration order. *)

val run_of_json : Iddq_util.Json.t -> (run, string) result
(** Reads the members {!run_fields} writes from an object, which may
    hold other members too.  [sensor_area], [test_time_per_vector] and
    [min_discriminability] are also read under the keys older campaign
    stores used ([area], [test_time], [min_disc]). *)

val delay_overhead_percent : run -> float
(** BIC-induced slowdown [100 * (D_BIC - D) / D], computed as
    {!Iddq_core.Cost.relative_delay} computes [c2]. *)

val test_time_overhead_percent : run -> float
(** Per-vector test-time increase over the sensor-less delay, percent
    (0 when [D = 0]). *)

(** {1 Table 1} *)

type row = {
  circuit_name : string;
  num_modules_standard : int;
  num_modules_evolution : int;
  area_standard : float;
  area_evolution : float;
  area_overhead_percent : float;
      (** Extra sensor hardware of standard over evolution:
          [100 * (A_std - A_evo) / A_evo] — the paper's
          14.5%–30.6% line. *)
  delay_overhead_standard_percent : float;
      (** BIC-induced slowdown [100 * (D_BIC - D) / D]. *)
  delay_overhead_evolution_percent : float;
  test_time_overhead_standard_percent : float;
      (** Per-vector test-time increase over the sensor-less delay. *)
  test_time_overhead_evolution_percent : float;
}

val row_of_runs : circuit_name:string -> standard:run list -> evolution:run list -> row
(** Means over the runs of each method (0 for an empty list); module
    counts are rounded means, and the area overhead is 0 when the
    evolution area is. *)

val row_of_results : circuit_name:string -> standard:Pipeline.t -> evolution:Pipeline.t -> row
(** [row_of_runs] over the two runs. *)

val table : row list -> Iddq_util.Table.t
(** Renders rows in the layout of the paper's Table 1. *)

val pp_pipeline : Format.formatter -> Pipeline.t -> unit
(** Per-run summary: method, modules, cost breakdown, sensors. *)
