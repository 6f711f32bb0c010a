(** Leak-proof, crash-safe file primitives.

    All file access at the persistence boundary goes through this
    module so that two invariants hold everywhere:

    - {b no descriptor leaks}: channels are closed via [Fun.protect]
      on every path out, including exceptions thrown by the callback;
    - {b no torn artifacts}: writes land in a scratch file that is
      atomically renamed over the target only after a successful
      flush, so a crash mid-write leaves any previous contents of the
      target intact.

    [Sys_error] (missing file, permission, full disk, ...) is captured
    and surfaced as [Error] carrying the path; exceptions that are not
    I/O failures propagate (after cleanup) since they indicate bugs,
    not bad inputs. *)

val with_in : string -> (in_channel -> 'a) -> ('a, Io_error.t) result
(** Open for reading, run the callback, always close. *)

val read_file : string -> (string, Io_error.t) result
(** Whole-file read. *)

val with_out_atomic : string -> (out_channel -> 'a) -> ('a, Io_error.t) result
(** Run the callback against a scratch channel, flush, then atomically
    rename over the target.  If the callback raises or the write
    fails, the scratch file is removed and the target keeps its
    previous contents. *)

val write_file_atomic : string -> string -> (unit, Io_error.t) result
(** [write_file_atomic path data] = atomic whole-file write. *)

val open_fd_count : unit -> int option
(** Number of open file descriptors of this process (via
    [/proc/self/fd]), or [None] where that filesystem does not exist.
    Used by the fuzz harness to assert descriptor-leak freedom. *)
