(** One job's durable result: identity, status, measurements, and the
    job's own cost-evaluation counters, as one JSONL line.

    Every numeric measurement is a pure function of the job identity
    (circuit, method, derived seed, configuration), so two runs of the
    same spec produce identical records {e modulo the timing fields}
    ([elapsed] and the metrics seconds) whatever the domain count or
    scheduling order — {!strip_timing} zeroes exactly those fields for
    comparisons. *)

type status =
  | Done
  | Failed of string  (** The job raised; the payload is the exception text. *)
  | Timeout of float  (** Exceeded the wall-clock budget (seconds). *)

type t = {
  job_id : string;
  circuit : string;
  method_ : Iddq.Pipeline.method_;
  seed : int;  (** Grid seed. *)
  derived_seed : int;  (** Per-job seed actually given to the pipeline. *)
  module_size : int option;
  status : status;
  elapsed : float;  (** Wall-clock seconds (timing field). *)
  num_modules : int;
  generations : int;
  module_sizes : int list;
      (** Final module sizes in ascending module-id order; what seeds
          a dependent standard job's reference sizes on resume. *)
  cost : float;  (** Penalized cost. *)
  feasible : bool;
  sensor_area : float;
  nominal_delay : float;
  bic_delay : float;
  test_time_per_vector : float;
  min_discriminability : float;
  metrics : Iddq_util.Metrics.snapshot;
      (** This job's counters (the [Seconds] ones are timing
          fields). *)
}

val is_ok : t -> bool
(** [true] iff [status = Done]. *)

val of_run :
  job:Spec.job ->
  derived_seed:int ->
  elapsed:float ->
  metrics:Iddq_util.Metrics.snapshot ->
  Iddq.Pipeline.t ->
  t

val failure :
  job:Spec.job ->
  derived_seed:int ->
  elapsed:float ->
  metrics:Iddq_util.Metrics.snapshot ->
  string ->
  t

val timed_out :
  job:Spec.job ->
  derived_seed:int ->
  elapsed:float ->
  metrics:Iddq_util.Metrics.snapshot ->
  limit:float ->
  t

val delay_overhead_percent : t -> float
(** [100 · (D_BIC − D) / D] — Table 1's delay row. *)

val test_time_overhead_percent : t -> float
(** Per-vector test-time increase over the sensor-less delay, percent. *)

val strip_timing : t -> t
(** Zero [elapsed] and the metrics seconds; everything left is
    deterministic for a given job. *)

val to_json : t -> Iddq_util.Json.t
val of_json : Iddq_util.Json.t -> (t, string) result

val to_line : t -> string
(** One newline-free JSON object (a JSONL record). *)

val of_line : string -> (t, string) result
