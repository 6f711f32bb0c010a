(** Synchronous client for the daemon's framed-JSON protocol.  Used by
    the `iddq_synth client` subcommand and the integration tests. *)

type t

val connect : socket:string -> (t, string) result

val fd : t -> Unix.file_descr
(** The underlying socket, for tests that disconnect mid-frame. *)

val send : t -> Iddq_util.Json.t -> unit
(** Frame and write one request. *)

val send_raw : t -> string -> unit
(** Write raw bytes — for exercising malformed and truncated frames. *)

val recv : t -> (Iddq_util.Json.t, string) result
(** Read one response frame.  [Error] on EOF or a decode failure. *)

val request :
  t -> ?id:int -> Protocol.request -> (Iddq_util.Json.t, string) result
(** [send] then [recv]: returns the response's [ok] payload, or
    [Error] carrying the server's [error.message] (or a transport
    failure). *)

val close : t -> unit
