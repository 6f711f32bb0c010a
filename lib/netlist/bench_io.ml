let strip s = String.trim s

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
  let fail fmt = Printf.ksprintf Io.reject fmt in
  let build add = try add () with Invalid_argument m -> Io.reject m in
  let parse_line _ line =
    match String.index_opt line '=' with
    | Some eq -> begin
      let lhs = strip (String.sub line 0 eq) in
      let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
      if lhs = "" then fail "missing net name before '='";
      match parse_call rhs with
      | None -> fail "expected KIND(arg, ...) after '='"
      | Some (kw, args) -> begin
        match Gate.of_string kw with
        | None -> fail "unknown gate kind %S" kw
        | Some kind ->
          let fanins = split_args args in
          if fanins = [] then fail "gate %S has no fanins" lhs;
          build (fun () -> Builder.add_gate b lhs kind fanins)
      end
    end
    | None -> begin
      match parse_call line with
      | Some (kw, args) -> begin
        match String.uppercase_ascii kw, split_args args with
        | "INPUT", [ n ] -> build (fun () -> Builder.add_input b n)
        | "OUTPUT", [ n ] -> build (fun () -> Builder.add_output b n)
        | ("INPUT" | "OUTPUT"), _ -> fail "%s takes exactly one net name" kw
        | _, _ -> fail "unknown directive %S" kw
      end
      | None -> fail "cannot parse %S" line
    end
  in
  Result.bind (Io.iter_lines text parse_line) (fun () ->
      Result.map_error (fun m -> Io_error.make m) (Builder.freeze b))

let parse_file path =
  let name = Filename.remove_extension (Filename.basename path) in
  Io.parse_file path (parse_string ~name)

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
