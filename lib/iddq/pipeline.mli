(** One-call synthesis flow: characterize a circuit against a cell
    library, build the chain start population, optimize the partition
    with the evolution strategy, and size one BIC sensor per module.

    This is the library's main entry point; the [examples/] programs,
    the benchmark harness, the campaign runner and the resident
    service ([Iddq_server]) are thin wrappers around it.

    {b Facade conventions} (every machine-facing caller should follow
    them):
    - build configurations with the {!val-config} builder, setting
      only the fields a request carries;
    - call {!run_result} / {!run_charac_result} /
      {!compare_methods_result} and match on the structured {!error};
    - {!run} and {!compare_methods} remain as thin raising wrappers
      for interactive callers and compatibility. *)

type method_ = Evolution | Standard | Random | Annealing | Refined_standard
(** Partitioning methods: the paper's contribution ([Evolution]), its
    §5 comparison ([Standard], greedy closest-gate clustering at the
    evolution's module sizes), and the ablation comparators. *)

val method_to_string : method_ -> string
val method_of_string : string -> method_ option

type t = {
  charac : Iddq_analysis.Charac.t;
  partition : Iddq_core.Partition.t;
  breakdown : Iddq_core.Cost.breakdown;
  sensors : (int * Iddq_bic.Sensor.t) list;
  method_used : method_;
  generations : int;  (** ES generations run (0 for one-shot methods). *)
}

(** {1 Configuration} *)

type config = private {
  library : Iddq_celllib.Library.t;
  weights : Iddq_core.Cost.weights;
  es_params : Iddq_evolution.Es.params;
  seed : int;
  module_size : int option;
      (** Target start-module size; [None] = estimate from the
          discriminability budget ({!Iddq_evolution.Seeds}). *)
  reference_sizes : int list option;
      (** Module sizes for [Standard] ("we take the numbers obtained
          by the evolution based algorithm"); [None] = near-equal
          sizes at the estimated module count. *)
  metrics : Iddq_util.Metrics.t;
      (** Where the run's cost-evaluation counters are recorded
          (default {!Iddq_util.Metrics.global}).  Give each job of a
          concurrent campaign its own instance so its counters are not
          polluted by jobs running in other domains. *)
}
(** Read-only outside this module: build one with the {!val-config}
    builder, which keeps every omitted field at its default. *)

val config :
  ?library:Iddq_celllib.Library.t ->
  ?weights:Iddq_core.Cost.weights ->
  ?es_params:Iddq_evolution.Es.params ->
  ?seed:int ->
  ?module_size:int ->
  ?reference_sizes:int list ->
  ?metrics:Iddq_util.Metrics.t ->
  unit ->
  config
(** [config ()] is {!default_config}; each label overrides one field.
    This is the supported way to build a configuration — callers that
    decode requests (the campaign runner, the server) set exactly what
    the request carries and inherit defaults for the rest. *)

val default_config : config
(** Default library, paper weights, default ES parameters, seed 42. *)

(** {1 Structured errors} *)

type error =
  | Empty_circuit  (** The circuit has no gates to partition. *)
  | Bad_config of string
      (** Invalid configuration: non-positive module size, reference
          sizes that are non-positive or do not sum to the gate
          count, degenerate ES parameters. *)
  | Characterization_failed of string
      (** [Charac.make] could not characterize the circuit against
          the configured library. *)
  | Infeasible of {
      method_ : method_;
      penalized : float;
      min_discriminability : float;
    }
      (** The method finished but its best partition violates the
          feasibility constraints (only reported when the caller
          passed [~require_feasible:true]). *)
  | Internal of string  (** A pass failed in an unclassified way. *)

val error_to_string : error -> string

(** {1 Result-typed entry points} *)

val run_result :
  ?config:config ->
  ?require_feasible:bool ->
  method_ ->
  Iddq_netlist.Circuit.t ->
  (t, error) result
(** Characterize and partition.  Never raises on bad inputs: empty
    circuits, invalid configurations and characterization failures
    come back as [Error].  [require_feasible] (default [false])
    additionally turns a structurally valid but infeasible best
    partition into [Error (Infeasible _)] — useful for services that
    must not hand out partitions violating the constraints. *)

val run_charac_result :
  ?config:config ->
  ?require_feasible:bool ->
  method_ ->
  Iddq_analysis.Charac.t ->
  (t, error) result
(** Same, reusing an existing characterization (cheaper when several
    methods — or several requests — run on one circuit). *)

val compare_methods_result :
  ?config:config ->
  Iddq_netlist.Circuit.t ->
  method_ list ->
  ((method_ * t) list, error) result
(** Runs several methods on one characterization.  When the list
    contains [Evolution], it runs first and its module sizes become
    the [reference_sizes] for [Standard]/[Refined_standard], matching
    the paper's protocol.  The first failing method aborts the
    comparison. *)

(** {1 Test-application time}

    The cost function's [c4] term aggregates per-module measurement
    times independently of the vector count (the partition does not
    change the logic, so the count is a property of the test set, not
    of the partition).  Once an actual test set exists — e.g. the
    minimized set from the {!Iddq_atpg.Atpg} facade — these turn its
    size into the concrete application time of {e this} synthesized
    design, making "vectors saved by minimization" directly
    comparable in seconds and cost-units. *)

val test_time : t -> vectors:int -> float
(** Total test-application time (s) for a [vectors]-vector set:
    [vectors * (D_BIC + max_i Delta(tau_i))]
    ({!Iddq_bic.Test_time.total} on this run's sensors). *)

val c4_of_vectors : t -> vectors:int -> float
(** The c4-style log-scaled cost of that time,
    [log (test_time / 1ns)] ([0.] when the time is non-positive) —
    comparable across vector counts on one design. *)

(** {1 Raising wrappers (compatibility)} *)

val run : ?config:config -> method_ -> Iddq_netlist.Circuit.t -> t
(** {!run_result}, raising [Invalid_argument] with the rendered
    {!error} on failure. *)

val compare_methods :
  ?config:config -> Iddq_netlist.Circuit.t -> method_ list -> (method_ * t) list
(** {!compare_methods_result}, raising [Invalid_argument] on failure. *)
