(** Search-observability counters: one registry of named counters.

    Every optimizer in the library spends essentially all of its time
    in cost evaluation, so the counters below make search throughput
    (and regressions in it) visible: how many evaluations ran, how many
    were full recomputations versus cache-assisted delta updates, how
    many were served straight from a cache, and how much per-gate
    degradation work each kind performed.  Packed fault simulation and
    the resident service record here too.

    Each counter is declared once, in this module, with its canonical
    name and a {!kind}; everything else — {!create}, {!snapshot},
    {!strip_timing} and the {!to_json}/{!of_json} codec — is a loop
    over the registry, so adding a counter is one declaration.  The
    canonical names are the keys of the service's [metrics] reply and
    of the campaign store's ["metrics"] object.

    There is no shared instance: whoever runs a campaign job, a service
    or a pipeline run makes one registry for it, and every evaluator
    and optimizer takes it as [~metrics].

    Cells are {!Stdlib.Atomic} integers: evaluators running in
    parallel [Domain]s (the ES offspring evaluation) may record into
    one shared instance without tearing.  Timings are integer
    nanoseconds of the monotonic {!Clock}, so offspring costed on
    parallel domains do not inflate each other's seconds. *)

(** {1 The registry} *)

type kind =
  | Count  (** An event count; summed. *)
  | Seconds
      (** A duration, stored as integer nanoseconds and encoded as
          seconds; summed, and zeroed by {!strip_timing}. *)
  | Peak  (** A high-water mark, raised by {!peak}. *)

type counter
(** One declared counter. *)

val name : counter -> string
(** The canonical name: the counter's JSON key. *)

val kind : counter -> kind

val counters : counter list
(** Every counter, in registry order. *)

(** Cost evaluation. *)

val full_evals : counter
(** Complete recomputations. *)

val delta_evals : counter
(** Cache-assisted recomputations. *)

val eval_cache_hits : counter
(** Evaluations served from a valid cache. *)

val moves : counter
(** Gate moves applied through incremental evaluators. *)

val gates_full : counter
(** Per-gate degradation recomputations done by full evaluations (the
    sum of circuit sizes over {!full_evals}). *)

val gates_delta : counter
(** Per-gate degradation recomputations done by delta evaluations. *)

val seconds_full : counter
(** Time spent in full evaluations. *)

val seconds_delta : counter
(** Time spent in delta evaluations. *)

(** Packed fault simulation ([Iddq_defects.Fault_sim]). *)

val sim_blocks : counter
(** Good-machine 64-vector blocks evaluated. *)

val sim_fault_blocks : counter
(** Per-fault block passes (word operations) performed. *)

val sim_faults_dropped : counter
(** Faults dropped (detected, never re-simulated). *)

val sim_steals : counter
(** Fault chunks executed beyond an even static split by the
    round-robin scheduler (idle-domain work rebalanced). *)

(** The resident service ([Iddq_server]). *)

val requests : counter
(** Requests answered (ok or error). *)

val requests_failed : counter
(** Requests answered with a protocol error. *)

val seconds_requests : counter
(** Time spent answering requests. *)

val cache_hits : counter
(** Session-cache lookups served (a parsed circuit, characterization
    or packed vector set reused). *)

val cache_misses : counter
(** Session-cache lookups computed and stored. *)

val cache_evictions : counter
(** Session-cache entries evicted by the LRU size bound. *)

val sheds : counter
(** Requests refused with [overloaded] by admission control
    (pipeline-depth or queue-depth limit hit). *)

val queue_peak : counter
(** High-water mark of the server's pending-request queue. *)

val wbuf_peak : counter
(** High-water mark of any connection's write buffer, bytes. *)

(** {1 Recording} *)

type t
(** A mutable counter set. *)

val create : unit -> t
(** A fresh counter set, all zeros. *)

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to a [Count] counter ([n] nanoseconds to a
    [Seconds] one). *)

val peak : t -> counter -> int -> unit
(** [peak t c x] raises the [Peak] counter [c] to [x] if [x] is
    higher. *)

val record_full : t -> gates:int -> seconds:float -> unit
(** One complete cost evaluation that recomputed the degradation of
    [gates] gates. *)

val record_delta : t -> gates:int -> seconds:float -> unit
(** One cache-assisted evaluation that recomputed only [gates] gates
    (the modules touched since the previous evaluation). *)

val record_fault_sim :
  ?steals:int -> t -> blocks:int -> fault_blocks:int -> dropped:int -> unit
(** One packed fault-simulation run: [blocks] good-machine 64-vector
    block evaluations, [fault_blocks] per-fault word-operation block
    passes, [dropped] faults removed from further simulation by fault
    dropping, and [steals] fault chunks a pool participant executed
    beyond an even static split (default [0]). *)

val record_request : t -> ok:bool -> seconds:float -> unit
(** One service request: outcome and latency.  [ok] is false for
    requests answered with a protocol error. *)

(** {1 Snapshots} *)

type snapshot
(** An immutable copy of a counter set.  Structural equality compares
    every counter. *)

val snapshot : t -> snapshot
(** A consistent-enough copy of the counters (each counter is read
    atomically; the set is not read under one lock). *)

val get : snapshot -> counter -> int
(** A counter's value; nanoseconds for a [Seconds] counter. *)

val seconds : snapshot -> counter -> float
(** A [Seconds] counter's value in seconds. *)

val strip_timing : snapshot -> snapshot
(** Every [Seconds] counter zeroed; what is left is deterministic for a
    deterministic computation. *)

(** {1 Codec} *)

val to_json : snapshot -> Json.t
(** One object with every counter under its canonical name: an [Int]
    for [Count] and [Peak], a [Float] of seconds for [Seconds]. *)

val of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json}.  A counter absent from the object is zero; a
    counter is looked up under its canonical name, then under the
    short key older campaign stores wrote ([full], [hits], [sec_full],
    [sim_dropped], [srv_hits], ...).  A non-object, or a counter of the
    wrong JSON type, is an error. *)

(** {1 Derived measures} *)

val evaluations : snapshot -> int
(** Cost queries answered: [full + delta + hits]. *)

val equivalent_evals : snapshot -> float
(** The work performed, in units of one full [Cost.evaluate]:
    [full_evals + gates_delta / (gates_full / full_evals)].  The
    normalizer is the mean circuit size seen by the full evaluations;
    when no full evaluation was recorded the delta work cannot be
    normalized and every delta evaluation is counted as a full one
    (a pessimistic upper bound). *)
