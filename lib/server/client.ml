module Json = Iddq_util.Json

type t = { fd : Unix.file_descr; decoder : Frame.decoder }

let fd t = t.fd

let connect ~socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok { fd; decoder = Frame.create () }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot connect to %s: %s" socket
         (Unix.error_message err))

(* A write to a connection the server has closed fails with EPIPE
   once SIGPIPE is ignored (the server and the CLI client ignore it);
   it comes back as an [Error] like a failed read. *)
let send_raw t s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write t.fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (err, _, _) ->
        Error ("write: " ^ Unix.error_message err)
  in
  go 0

let send t json = send_raw t (Frame.encode json)

let recv t =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Frame.next t.decoder with
    | Some (Frame.Frame j) -> Ok j
    | Some (Frame.Malformed msg) -> Error ("bad response payload: " ^ msg)
    | Some (Frame.Oversized n) ->
      Error (Printf.sprintf "oversized response frame (%d bytes)" n)
    | None -> begin
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | 0 -> Error "connection closed by server"
      | n ->
        Frame.feed_sub t.decoder buf 0 n;
        go ()
      | exception Unix.Unix_error (err, _, _) ->
        Error ("read: " ^ Unix.error_message err)
    end
  in
  go ()

let request t ?id req =
  let sent = send t (Protocol.request_to_json ?id req) in
  match Result.bind sent (fun () -> recv t) with
  | Error _ as e -> e
  | Ok resp -> (
    match Protocol.response_payload resp with
    | Ok payload -> Ok payload
    | Error e ->
      Error
        (Printf.sprintf "%s: %s"
           (Protocol.code_to_string e.Protocol.code)
           e.Protocol.message))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
