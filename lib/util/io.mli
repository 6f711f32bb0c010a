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
    not bad inputs.

    It also owns the lexical rule shared by the line-oriented text
    formats (bench netlists, cell libraries, pattern sets, partitions,
    campaign specs): lines are split on ['\n'] and numbered from 1;
    ['#'] starts a comment that runs to the end of the line; blanks
    around a line are trimmed; a line left empty carries nothing.  A
    parser sees only the non-empty lines, through {!iter_lines}, and an
    error it raises on one names that line. *)

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

val iter_lines : string -> (int -> string -> unit) -> (unit, Io_error.t) result
(** [iter_lines text f] calls [f lineno line] on every line of [text]
    that is non-empty once its comment is cut and its blanks trimmed,
    in order; [lineno] is 1-based.  If [f] refuses a line with
    {!reject}, iteration stops and the result is [Error] at that line. *)

val reject : string -> 'a
(** Refuse the current line of {!iter_lines} with a message.  Called
    outside an [iter_lines] callback, the exception escapes. *)

val parse_file :
  string -> (string -> ('a, Io_error.t) result) -> ('a, Io_error.t) result
(** [parse_file path parse] reads [path] and parses its text, putting
    [path] on any parse error. *)
