(** The monotonic clock every library timing reads.

    [clock_gettime (CLOCK_MONOTONIC)]: elapsed real time that never
    steps backwards.  Unlike [Sys.time] (CPU time of the whole
    process) a duration measured on one domain does not grow with the
    work other domains do meanwhile; unlike [Unix.gettimeofday] it does
    not jump when the system clock is set. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin; only differences are
    meaningful. *)

val seconds_since : int -> float
(** [seconds_since t0] is the time elapsed since [t0 = now_ns ()], in
    seconds. *)
