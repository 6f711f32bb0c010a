(** The campaign scheduler: a campaign's jobs as {!Iddq_util.Domain_pool}
    chunks, one chunk per job.

    Jobs whose latest stored result is [Done] are skipped (checkpoint
    /resume); failed and timed-out jobs re-run.  Each executed job

    - draws its configuration seed from {!derived_seed} — a pure
      function of the job identity, so results are reproducible
      whatever the domain count or scheduling order;
    - records its cost-evaluation counters in a private
      {!Iddq_util.Metrics.t} instance;
    - is isolated: a pipeline error or an exception becomes a [Failed]
      record, a run past the spec's wall-clock budget a [Timeout]
      record, and the campaign carries on.  (The budget is checked when the job
      returns — OCaml domains cannot be preempted — so a hung job
      stalls its domain but never corrupts the store.)

    The jobs run in two waves of {!Iddq_util.Domain_pool.run} on one
    pool.  [Standard]/[Refined_standard] jobs whose evolution
    dependency runs in this invocation form the second wave; every
    other job is in the first.  A second-wave job starts after the
    first wave's barrier, with its dependency's module sizes as
    reference sizes (a dependency satisfied by the store serves the
    same way) — the paper's protocol, preserved across resume
    boundaries. *)

type outcome = {
  results : Job_result.t list;  (** One per job, in spec expansion order. *)
  executed : int;  (** Jobs actually run this invocation. *)
  skipped : int;  (** Jobs satisfied by the store (resume). *)
  ok : int;  (** Jobs whose final status is [Done]. *)
  failed : int;
  timed_out : int;
}

type error =
  | Invalid_spec of string
      (** The spec failed {!Spec.validate}; the payload is its
          diagnostic.  (Job-level failures never surface here — they
          are isolated into [Failed]/[Timeout] records.) *)
  | Pool_unavailable of string
      (** The worker pool could not be created (the runtime refused a
          domain, e.g. past its domain limit); no job ran. *)
  | Record_failed of string
      (** Recording a result raised — the store could not be written
          ({!Store.append} on a closed store or a full disk) or
          [on_result] raised; the payload is the exception text.  Jobs
          not yet started when it happened did not run, and the store
          holds every result recorded before it. *)

val error_to_string : error -> string

val derived_seed : Spec.job -> int
(** Non-negative per-job seed: the job's grid seed stream-split by a
    hash of its id ({!Iddq_util.Rng.keyed_seed}).  Depends only on the job
    identity — never on the grid shape, scheduling order or store
    contents. *)

val run :
  ?domains:int ->
  ?resolve:(string -> Iddq_netlist.Circuit.t option) ->
  ?on_result:(Spec.job -> Job_result.t -> fresh:bool -> unit) ->
  store:Store.t ->
  Spec.t ->
  (outcome, error) result
(** Execute the campaign.  [domains] (default 1, clamped to the job
    count) sizes the worker pool.  [resolve] maps circuit names to
    netlists (default {!Iddq_netlist.Iscas.by_name} — lookups return
    [option], a miss becomes the job's [Failed] record; a test hook
    and the place to plug file-loaded netlists in).  [on_result]
    observes every job outcome in completion order, including skipped
    stored results ([fresh:false], on the caller before any job runs).
    A fresh result is appended to the store and passed to [on_result]
    under one record lock, from whichever pool domain ran the job, so
    keep it brief.  An invalid spec is [Error (Invalid_spec _)], a
    pool the runtime cannot spawn [Error (Pool_unavailable _)] and a
    raising record [Error (Record_failed _)] — never an exception. *)
