(** Table-1-style reporting: the rows of the paper's evaluation. *)

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

val row_of_results : circuit_name:string -> standard:Pipeline.t -> evolution:Pipeline.t -> row

val table : row list -> Iddq_util.Table.t
(** Renders rows in the layout of the paper's Table 1. *)

val pp_pipeline : Format.formatter -> Pipeline.t -> unit
(** Per-run summary: method, modules, cost breakdown, sensors. *)
