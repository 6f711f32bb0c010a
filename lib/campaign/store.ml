type t = {
  path : string;
  table : (string, Job_result.t) Hashtbl.t;
  mutable order : string list;  (* reversed first-appearance order *)
  mutable dropped : int;
  out : out_channel;
}

let load_line t line =
  if String.trim line <> "" then begin
    match Job_result.of_line line with
    | Ok r ->
      if not (Hashtbl.mem t.table r.Job_result.job_id) then
        t.order <- r.Job_result.job_id :: t.order;
      Hashtbl.replace t.table r.Job_result.job_id r
    | Error _ -> t.dropped <- t.dropped + 1
  end

(* Only a regular file is read back: a FIFO would block the open until
   a writer appears and a character device such as /dev/zero never
   ends, so either is refused before any read. *)
let open_ path =
  let scan =
    match Unix.stat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ([], false)
    | exception Unix.Unix_error (err, _, _) ->
      Error (Iddq_util.Io_error.make ~path (Unix.error_message err))
    | { Unix.st_kind = Unix.S_REG; _ } ->
      Iddq_util.Io.with_in path (fun ic ->
          let lines = In_channel.input_lines ic in
          (* a file not ending in '\n' was torn mid-write; the next
             append must not glue onto the partial line *)
          let len = in_channel_length ic in
          let torn =
            len > 0
            && (seek_in ic (len - 1);
                input_char ic <> '\n')
          in
          (lines, torn))
    | _ -> Error (Iddq_util.Io_error.make ~path "not a regular file")
  in
  match scan with
  | Error e -> Error e
  | Ok (existing, torn_tail) -> begin
    match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
    | exception Sys_error m -> Error (Iddq_util.Io_error.of_sys_error ~path m)
    | out ->
      if torn_tail then output_char out '\n';
      let t =
        { path; table = Hashtbl.create 64; order = []; dropped = 0; out }
      in
      List.iter (load_line t) existing;
      Ok t
  end

let path t = t.path
let find t id = Hashtbl.find_opt t.table id

let records t = List.rev_map (fun id -> Hashtbl.find t.table id) t.order

let count t = Hashtbl.length t.table
let dropped t = t.dropped

let append t r =
  output_string t.out (Job_result.to_line r);
  output_char t.out '\n';
  flush t.out;
  if not (Hashtbl.mem t.table r.Job_result.job_id) then
    t.order <- r.Job_result.job_id :: t.order;
  Hashtbl.replace t.table r.Job_result.job_id r

let close t = close_out t.out
