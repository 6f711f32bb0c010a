(** A small reusable pool of worker domains with work-stealing chunk
    scheduling — the library's one compute scheduler.

    The pool spawns its workers {e once}; each {!run} publishes a job
    of [chunks] indivisible chunks that the caller and every worker
    claim round-robin off one [Atomic] index until none remain.  That
    one primitive serves every parallel loop: the striped good machine
    of the IDDQ matrix (a chunk per stripe of blocks, one {!run} per
    evaluation), its work-stealing fault scheduler (a chunk per fault
    batch — the measurability filter makes per-fault cost uneven, so
    fixed ranges would idle), the offspring
    costs of one evolution-strategy generation (a pool per run, a
    {!run} per generation), campaign jobs (a chunk per job, in two
    dependency waves), and the server's long-lived worker crew (one
    {!run} whose chunks are the worker loops).

    A pool is owned by one orchestrating caller: concurrent {!run}
    calls on the same pool are not allowed.  The job function must
    only write state disjoint per chunk. *)

type t

val create : domains:int -> t
(** A pool of [max 1 domains] participants: the caller plus
    [domains - 1] spawned workers (none for [domains <= 1]).  Workers
    sleep on a condition variable between jobs.

    Raises [Failure] when the runtime cannot spawn a worker (past its
    domain limit, for one).  The workers already spawned are stopped
    and joined before the exception leaves, so a failed [create]
    leaks no domain and a smaller pool can still be created after
    it. *)

val size : t -> int
(** Participants (caller included). *)

val run : t -> chunks:int -> (int -> unit) -> int
(** [run t ~chunks f] calls [f c] exactly once for every
    [c in 0 .. chunks - 1], distributing chunks over the pool by
    atomic round-robin claiming; returns when all chunks completed
    (the barrier).  The returned count is the {e steals}: chunks
    executed beyond an even static split (the work a fixed-range
    scheduler would have left on an idle domain).  If any [f] raises,
    the first exception re-raises here after the barrier. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent; {!run} after shutdown
    executes inline on the caller. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] — {!create}, run [f], always
    {!shutdown}. *)
