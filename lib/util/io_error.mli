(** Structured I/O and parse errors.

    Every parser and file reader/writer at the persistence boundary
    reports failures as a value of this type instead of raising, so a
    malformed or unreadable input degrades into a diagnosable [Error]
    that pinpoints where it happened: which file and which line. *)

type t = {
  path : string option;  (** The file involved, when one is. *)
  line : int option;  (** 1-based line of the offending input. *)
  message : string;
}

val make : ?path:string -> ?line:int -> string -> t

val with_path : string -> t -> t
(** Attach a path to an error produced while parsing in-memory text;
    keeps an already-present path. *)

val of_sys_error : path:string -> string -> t
(** Wrap a [Sys_error] message, stripping the leading ["path: "] the
    runtime prepends so {!to_string} does not repeat it. *)

val to_string : t -> string
(** ["path:line: message"], degrading gracefully when components are
    absent (["path: ..."], ["line 3: ..."], or the bare message). *)

val pp : Format.formatter -> t -> unit
