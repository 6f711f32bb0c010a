(** Socket-free request handler: the service's whole behaviour minus
    the transport, so tests drive it directly on JSON values.

    The handler applies the campaign runner's isolation discipline to
    every request: work runs under a per-request seed {e derived} from
    the request's seed and its cache key (so answers are reproducible
    whatever the client interleaving), an escaped exception becomes an
    [internal] error response instead of killing the connection, and
    a request running past the configured wall-clock budget is
    answered with [budget_exceeded] (checked on return — domains
    cannot be preempted).  Every request records its latency and
    outcome in the service's {!Iddq_util.Metrics.t}. *)

type t

val create :
  ?metrics:Iddq_util.Metrics.t ->
  ?library:Iddq_celllib.Library.t ->
  ?budget:float ->
  ?cache_entries:int ->
  unit ->
  t
(** [metrics] (default a private instance) receives request and cache
    counters and is what the [metrics] request reports; [budget] is
    the per-request wall-clock limit in seconds (default: none);
    [cache_entries] bounds each session-cache table
    ({!Cache.create}'s [max_entries], default
    {!Cache.default_max_entries}). *)

val metrics : t -> Iddq_util.Metrics.t

val handle :
  t -> Iddq_util.Json.t -> Iddq_util.Json.t * [ `Continue | `Shutdown ]
(** Answer one decoded request frame.  Never raises.  [`Shutdown]
    asks the transport to stop accepting and drain. *)

val stop : t -> unit
(** Join background campaign domains.  Call once, after the last
    {!handle}. *)
