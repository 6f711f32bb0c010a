let with_in path f =
  match open_in_bin path with
  | exception Sys_error m -> Error (Io_error.of_sys_error ~path m)
  | ic -> begin
    match Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic) with
    | v -> Ok v
    | exception Sys_error m -> Error (Io_error.of_sys_error ~path m)
  end

let read_file path =
  with_in path (fun ic -> really_input_string ic (in_channel_length ic))

exception Rejected of string

let reject message = raise (Rejected message)

let iter_lines text f =
  let lineno = ref 0 in
  let visit raw =
    incr lineno;
    let line =
      match String.index_opt raw '#' with
      | None -> String.trim raw
      | Some i -> String.trim (String.sub raw 0 i)
    in
    if line <> "" then f !lineno line
  in
  match List.iter visit (String.split_on_char '\n' text) with
  | () -> Ok ()
  | exception Rejected message -> Error (Io_error.make ~line:!lineno message)

let parse_file path parse =
  Result.bind (read_file path) (fun text ->
      Result.map_error (Io_error.with_path path) (parse text))

(* Distinct temp names per call so two writers racing on the same
   target never share a scratch file; within one process the counter
   suffices, across processes the rename still keeps the target
   atomic (last rename wins, both contents are complete). *)
let tmp_counter = ref 0

let fresh_tmp path =
  incr tmp_counter;
  Printf.sprintf "%s.tmp.%d" path !tmp_counter

let with_out_atomic path f =
  let tmp = fresh_tmp path in
  let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  match open_out_bin tmp with
  | exception Sys_error m -> Error (Io_error.of_sys_error ~path m)
  | oc -> begin
    match
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          let v = f oc in
          flush oc;
          v)
    with
    | v -> begin
      match Sys.rename tmp path with
      | () -> Ok v
      | exception Sys_error m ->
        remove_tmp ();
        Error (Io_error.of_sys_error ~path m)
    end
    | exception Sys_error m ->
      remove_tmp ();
      Error (Io_error.of_sys_error ~path m)
    | exception e ->
      (* non-I/O exception from [f]: clean up the scratch file, leave
         the previous [path] contents untouched, and re-raise *)
      remove_tmp ();
      raise e
  end

let write_file_atomic path data =
  with_out_atomic path (fun oc -> output_string oc data)

let open_fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | entries ->
    (* the directory scan itself holds one descriptor *)
    Some (Array.length entries - 1)
  | exception Sys_error _ -> None
