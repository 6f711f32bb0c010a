module Io = Iddq_util.Io

let to_string vectors =
  let buf = Buffer.create (Array.length vectors * 16) in
  Array.iter
    (fun v ->
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) v;
      Buffer.add_char buf '\n')
    vectors;
  Buffer.contents buf

let of_string ~expected_width text =
  let vectors = ref [] in
  let parse_line _ line =
    if String.length line <> expected_width then
      Io.reject
        (Printf.sprintf "expected %d bits, got %d" expected_width
           (String.length line));
    let v =
      Array.init expected_width (fun j ->
          match line.[j] with
          | '1' -> true
          | '0' -> false
          | ch -> Io.reject (Printf.sprintf "bad character %C" ch))
    in
    vectors := v :: !vectors
  in
  Result.map
    (fun () -> Array.of_list (List.rev !vectors))
    (Io.iter_lines text parse_line)

let write_file path vectors = Io.write_file_atomic path (to_string vectors)

let read_file ~expected_width path =
  Io.parse_file path (of_string ~expected_width)
