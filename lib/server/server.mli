(** The `iddq_synth serve` daemon: a Unix-domain-socket transport
    around {!Service}.

    The transport is an event-driven multiplexer: one [Unix.select]
    loop owns the listener and every accepted socket (all
    non-blocking), feeds received bytes into a per-connection
    {!Frame.decoder}, and stages encoded responses in a
    per-connection write buffer ({!Netbuf}) drained with partial-write
    continuation as the socket accepts bytes.  Decoded requests are
    executed by a small worker crew riding the
    {!Iddq_util.Domain_pool}; finished responses come back to the
    event loop over a completion queue and a self-pipe wake-up.

    {2 Admission control}

    Every decoded request passes admission before it may queue:

    - at most [max_pipeline] requests per connection may be in flight
      (admitted, response not yet staged);
    - at most [max_queue] admitted requests server-wide may be waiting
      for a worker.

    A request refused by either limit is answered {e immediately} with
    an [overloaded] error (its [id] echoed) and is never queued — the
    connection stays usable.  Sheds and the queue/write-buffer
    high-water marks are recorded in the service's metrics.

    Workers take work per-{e connection}, round-robin, never serving
    one connection twice concurrently — responses stay in request
    order per client and a flooding client cannot starve the rest.

    {2 Failure handling}

    Connection-level failures degrade per the protocol contract:

    - a frame whose payload is not valid JSON gets a
      [malformed_frame] error response and the connection continues
      (length prefixing keeps the stream in sync);
    - a frame above the length cap gets an [oversized_frame] error
      response and the connection is closed after its write buffer
      flushes (the payload is never buffered);
    - a client disconnecting — cleanly, mid-frame, or before reading
      responses it is owed ([EPIPE]/[ECONNRESET] on write) — closes
      only its own connection; {!run} never re-raises transport
      errors;
    - a [shutdown] request is answered, then the listener closes,
      remaining connections are flushed (bounded by the drain
      timeout), and {!run} returns.

    Descriptors are accounted strictly: every accepted socket, the
    listener, and the wake-up pipe are closed by the time {!run}
    returns. *)

type t

type create_error =
  | Address_in_use of string
      (** The socket path is owned by a {e live} server: a probe
          connect succeeded.  {!create} never removes it. *)
  | Cannot_listen of { socket : string; message : string }
      (** bind/listen failed (permissions, path length, missing
          directory, ...). *)
  | Pool_unavailable of string
      (** The worker crew could not be spawned (the runtime refused a
          domain, e.g. past its domain limit).  The listener and the
          wake-up pipe are closed and the socket file is removed. *)

val create_error_to_string : create_error -> string

val create :
  socket:string ->
  ?max_frame:int ->
  ?workers:int ->
  ?max_pipeline:int ->
  ?max_queue:int ->
  ?budget:float ->
  ?metrics:Iddq_util.Metrics.t ->
  ?cache_entries:int ->
  unit ->
  (t, create_error) result
(** Bind and listen on [socket].  An existing path is probed with a
    connect first: a live server answers [Error (Address_in_use _)];
    a stale socket file (connect refused) is replaced.

    [max_frame] caps frame payloads ({!Frame.default_max_frame});
    [workers] sizes the execution crew (default 2, min 1);
    [max_pipeline] (default 8) and [max_queue] (default 256) are the
    admission limits above; shutdown waits at most 5 s for unread
    responses before dropping the connections that own them; [budget],
    [metrics] and [cache_entries] (per-table session-cache bound, LRU
    eviction) configure the {!Service}. *)

val service : t -> Service.t

val run : t -> unit
(** Drive the event loop until a [shutdown] request (or {!shutdown})
    arrives, then drain connections, halt and join the worker crew,
    stop the service, and remove the socket file.  Ignores [SIGPIPE]
    for the process. *)

val shutdown : t -> unit
(** Ask a running {!run} to stop from another domain.  Idempotent and
    safe after {!run} has returned. *)
