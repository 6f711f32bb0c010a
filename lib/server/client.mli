(** Synchronous client for the daemon's framed-JSON protocol.  Used by
    the `iddq_synth client` subcommand and the integration tests. *)

type t

val connect : socket:string -> (t, string) result

val fd : t -> Unix.file_descr
(** The underlying socket, for tests that disconnect mid-frame. *)

val send : t -> Iddq_util.Json.t -> (unit, string) result
(** Frame and write one request.  [Error] when the write fails — a
    connection the server has closed is [EPIPE], provided the process
    ignores SIGPIPE (otherwise the signal kills it first). *)

val send_raw : t -> string -> (unit, string) result
(** Write raw bytes — for exercising malformed and truncated frames.
    Fails like {!send}. *)

val recv : t -> (Iddq_util.Json.t, string) result
(** Read one response frame.  [Error] on EOF or a decode failure. *)

val request :
  t -> ?id:int -> Protocol.request -> (Iddq_util.Json.t, string) result
(** [send] then [recv]: returns the response's [ok] payload, or
    [Error] carrying the server's [error.message] (or a transport
    failure, a failed write included). *)

val close : t -> unit
