type t = {
  path : string option;
  line : int option;
  message : string;
}

let make ?path ?line message = { path; line; message }

let with_path path e =
  match e.path with None -> { e with path = Some path } | Some _ -> e

(* [Sys_error] messages already lead with the path ("foo: No such
   file..."); strip it so [to_string] does not print the path twice. *)
let of_sys_error ~path message =
  let prefix = path ^ ": " in
  let p = String.length prefix in
  let message =
    if String.length message >= p && String.sub message 0 p = prefix then
      String.sub message p (String.length message - p)
    else message
  in
  make ~path message

let to_string e =
  let where =
    match e.path, e.line with
    | Some p, Some l -> Printf.sprintf "%s:%d: " p l
    | Some p, None -> p ^ ": "
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  where ^ e.message

let pp fmt e = Format.pp_print_string fmt (to_string e)
