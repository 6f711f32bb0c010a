(** One job's durable result: identity, status, the run's measurements
    when it finished, and the job's own cost-evaluation counters, as
    one JSONL line.

    Every numeric measurement is a pure function of the job identity
    (circuit, method, derived seed, configuration), so two runs of the
    same spec produce identical records {e modulo the timing fields}
    ([elapsed] and the metrics seconds) whatever the domain count or
    scheduling order — {!strip_timing} zeroes exactly those fields for
    comparisons. *)

type status =
  | Done of Iddq.Report.run
      (** Finished; the measurements, encoded by
          {!Iddq.Report.run_fields} as the service's [partition] reply
          encodes them. *)
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
  metrics : Iddq_util.Metrics.snapshot;
      (** This job's counters (the [Seconds] ones are timing
          fields). *)
}

val is_ok : t -> bool
(** [true] iff the status is [Done]. *)

val run : t -> Iddq.Report.run option
(** The measurements of a [Done] record. *)

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

val strip_timing : t -> t
(** Zero [elapsed] and the metrics seconds; everything left is
    deterministic for a given job. *)

val to_json : t -> Iddq_util.Json.t

val to_line : t -> string
(** One newline-free JSON object (a JSONL record).  A failed or
    timed-out record carries no measurements. *)

val of_line : string -> (t, string) result
(** Decodes what {!to_line} writes, and the lines older stores wrote:
    the legacy keys {!Iddq.Report.run_of_json} reads, and failure
    records with zero measurements, which are ignored. *)
