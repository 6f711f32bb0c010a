(** Session cache of the resident service, keyed by content hash.

    A circuit's {e handle} is the hex digest of its canonical [.bench]
    rendering, so the same netlist loaded twice — by name, by inline
    text, by different clients — lands on one entry, and everything
    derived from it (its {!Iddq_analysis.Charac.t}, its partition runs,
    its random vector sets, its diagnosis engines and ATPG test sets)
    is computed once and reused across requests.  The [partition],
    [fault_sim] and [diagnose] requests share one partition run per
    key.

    Every table is {e size-bounded} with least-recently-used eviction
    ([max_entries] per table, default 256), so a long-lived server fed
    an unbounded stream of distinct circuits holds steady memory
    instead of growing without bound.  Evictions are counted into the
    service's metrics ({!Iddq_util.Metrics.cache_evictions}); an
    evicted entry is simply recomputed on next use.

    All operations are domain-safe (one lock), and a miss computes
    {e outside} the lock: it is looked up under the lock, computed
    without it, then inserted under it again.  So a long computation
    (a diagnosis engine, an ATPG run) never delays another request's
    lookups, and a compute function may itself use the cache.  Two
    requests that miss one key at once both compute it; the first
    value stored wins and is the one both get back.  Cached values are
    shared between requests and domains: callers only read them.
    Derived-value lookups record hit/miss into the service's
    {!Iddq_util.Metrics.t}
    ({!Iddq_util.Metrics.cache_hits}/{!Iddq_util.Metrics.cache_misses}). *)

type t

val default_max_entries : int
(** 256. *)

val create :
  metrics:Iddq_util.Metrics.t ->
  ?library:Iddq_celllib.Library.t ->
  ?max_entries:int ->
  unit ->
  t
(** Lookups record into the caller's [metrics]; [library] (used by
    {!charac}) defaults to the built-in one.  [max_entries] (default
    {!default_max_entries}, clamped to at least 1) bounds {e each}
    table independently. *)

val handle_of_circuit : Iddq_netlist.Circuit.t -> string
(** Content hash of the canonical [.bench] text. *)

val add_circuit : t -> Iddq_netlist.Circuit.t -> string
(** Insert (or find) a circuit; returns its handle.  Re-adding the
    same content is a cache hit (and refreshes its recency). *)

val find_circuit : t -> string -> Iddq_netlist.Circuit.t option

val charac : t -> handle:string -> Iddq_netlist.Circuit.t -> Iddq_analysis.Charac.t
(** The circuit's characterization against the cache's library,
    computed on first use. *)

val vectors :
  t ->
  handle:string ->
  seed:int ->
  count:int ->
  Iddq_netlist.Circuit.t ->
  bool array array
(** [count] random vectors for the circuit drawn from a fresh
    [Rng.create seed] — generated once per (handle, seed, count). *)

val partition :
  t ->
  key:string ->
  (unit -> (Iddq.Pipeline.t, Iddq.Pipeline.error) result) ->
  (Iddq.Pipeline.t, Iddq.Pipeline.error) result
(** Memoized partition run ({!Iddq.Pipeline.run_charac_result}: a full
    partitioner run and its cost).  The caller's [key] must capture
    every input of the run — handle, method, module size, seed and
    [require_feasible].  Structured errors are cached too: they are
    deterministic for their key. *)

val diagnosis :
  t -> key:string -> (unit -> Iddq_diagnose.Diagnose.t) -> Iddq_diagnose.Diagnose.t
(** Memoized diagnosis engine ({!Iddq_diagnose.Diagnose.build} is a
    full fault simulation).  The caller's [key] must capture every
    input of the build — handle, method, seed, vectors, defects,
    defect current — but {e not} the measurement parameters (epsilon,
    trials, top_k), so accuracy sweeps over the noise model reuse one
    engine. *)

val testset :
  t ->
  key:string ->
  (unit -> (Iddq_atpg.Atpg.set_result, Iddq_atpg.Atpg.error) result) ->
  (Iddq_atpg.Atpg.set_result, Iddq_atpg.Atpg.error) result
(** Memoized ATPG generation ({!Iddq_atpg.Atpg.generate_result} is a
    PODEM loop plus a full detection-matrix build).  The caller's
    [key] must capture every input of {e generation} — handle, seed,
    random vector count, backtrack limit, budget — but {e not} the
    minimization strategy: the cached result carries the full-set
    detection matrix, so strategy sweeps re-minimize
    ({!Iddq_atpg.Atpg.minimize_result}) one cached generation.
    Structured errors are cached too — a budget-exhausted generation
    is deterministic for its key and not worth recomputing. *)

type stats = {
  circuits : int;
  characs : int;
  vector_sets : int;
  partitions : int;
  diagnoses : int;
  testsets : int;
}

val stats : t -> stats
