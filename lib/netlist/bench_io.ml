let strip s = String.trim s

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

(* "INPUT(G1)" -> Some ("INPUT", "G1") ; tolerant of inner spaces. *)
let parse_call s =
  match String.index_opt s '(' with
  | None -> None
  | Some lp ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then None
    else begin
      let keyword = strip (String.sub s 0 lp) in
      let args = String.sub s (lp + 1) (String.length s - lp - 2) in
      Some (keyword, args)
    end

let split_args args =
  String.split_on_char ',' args |> List.map strip
  |> List.filter (fun s -> s <> "")

module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error

let parse_string ?(name = "bench") text =
  let b = Builder.create ~name () in
  let lines = String.split_on_char '\n' text in
  let exception Parse_error of int * string in
  let fail lineno fmt =
    Format.kasprintf (fun m -> raise (Parse_error (lineno, m))) fmt
  in
  try
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = strip (strip_comment raw) in
        if line <> "" then begin
          match String.index_opt line '=' with
          | Some eq ->
            let lhs = strip (String.sub line 0 eq) in
            let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
            if lhs = "" then fail lineno "missing net name before '='";
            begin
              match parse_call rhs with
              | None -> fail lineno "expected KIND(arg, ...) after '='"
              | Some (kw, args) -> begin
                match Gate.of_string kw with
                | None -> fail lineno "unknown gate kind %S" kw
                | Some kind -> begin
                  let fanins = split_args args in
                  if fanins = [] then fail lineno "gate %S has no fanins" lhs;
                  try Builder.add_gate b lhs kind fanins
                  with Invalid_argument m -> fail lineno "%s" m
                end
              end
            end
          | None -> begin
            match parse_call line with
            | Some (kw, args) -> begin
              match String.uppercase_ascii kw, split_args args with
              | "INPUT", [ n ] -> begin
                try Builder.add_input b n
                with Invalid_argument m -> fail lineno "%s" m
              end
              | "OUTPUT", [ n ] -> begin
                try Builder.add_output b n
                with Invalid_argument m -> fail lineno "%s" m
              end
              | ("INPUT" | "OUTPUT"), _ ->
                fail lineno "%s takes exactly one net name" kw
              | _, _ -> fail lineno "unknown directive %S" kw
            end
            | None -> fail lineno "cannot parse %S" line
          end
        end)
      lines;
    Result.map_error (fun m -> Io_error.make m) (Builder.freeze b)
  with Parse_error (lineno, m) -> Error (Io_error.make ~line:lineno m)

let parse_file path =
  match Io.read_file path with
  | Error e -> Error e
  | Ok text ->
    let base = Filename.remove_extension (Filename.basename path) in
    Result.map_error (Io_error.with_path path) (parse_string ~name:base text)

let to_string c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.name c));
  Array.iter
    (fun id ->
      Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.node_name c id)))
    (Circuit.inputs c);
  Array.iter
    (fun id ->
      Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.node_name c id)))
    (Circuit.outputs c);
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    let args =
      Array.to_list (Circuit.fanins c id)
      |> List.map (Circuit.node_name c)
      |> String.concat ", "
    in
    Buffer.add_string buf
      (Printf.sprintf "%s = %s(%s)\n" (Circuit.node_name c id)
         (Gate.to_string (Circuit.gate_kind c id)) args)
  done;
  Buffer.contents buf

let write_file path c = Io.write_file_atomic path (to_string c)
