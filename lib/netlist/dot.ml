let palette =
  [| "#a6cee3"; "#b2df8a"; "#fb9a99"; "#fdbf6f"; "#cab2d6"; "#ffff99";
     "#1f78b4"; "#33a02c"; "#e31a1c"; "#ff7f00" |]

let escape name =
  let buf = Buffer.create (String.length name + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      if ch = '"' || ch = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf ch)
    name;
  Buffer.add_char buf '"';
  Buffer.contents buf

let of_circuit ?module_of_gate c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" (escape (Circuit.name c)));
  Buffer.add_string buf "  rankdir=LR;\n  node [fontname=\"monospace\"];\n";
  let node_decl id =
    let name = Circuit.node_name c id in
    if Circuit.is_input c id then
      Printf.sprintf "  %s [shape=box];\n" (escape name)
    else begin
      let kind = Gate.to_string (Circuit.gate_kind c id) in
      let shape = if Circuit.is_output c id then "doublecircle" else "ellipse" in
      let fill =
        match module_of_gate with
        | None -> ""
        | Some f ->
          let m = f (Circuit.gate_of_node c id) in
          Printf.sprintf ", style=filled, fillcolor=\"%s\""
            palette.(m mod Array.length palette)
      in
      Printf.sprintf "  %s [shape=%s, label=\"%s\\n%s\"%s];\n" (escape name)
        shape
        (String.map (fun ch -> if ch = '"' then '\'' else ch) name)
        kind fill
    end
  in
  (match module_of_gate with
  | None ->
    for id = 0 to Circuit.num_nodes c - 1 do
      Buffer.add_string buf (node_decl id)
    done
  | Some f ->
    (* inputs outside the clusters *)
    Array.iter (fun id -> Buffer.add_string buf (node_decl id)) (Circuit.inputs c);
    (* gates grouped per module *)
    let by_module = Hashtbl.create 8 in
    for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
      let m = f (Circuit.gate_of_node c id) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_module m) in
      Hashtbl.replace by_module m (id :: cur)
    done;
    let modules =
      Hashtbl.fold (fun m ids acc -> (m, List.rev ids) :: acc) by_module []
      |> List.sort compare
    in
    List.iter
      (fun (m, ids) ->
        Buffer.add_string buf
          (Printf.sprintf "  subgraph cluster_%d {\n    label=\"module %d (BIC sensor %d)\";\n"
             m m m);
        List.iter (fun id -> Buffer.add_string buf ("  " ^ node_decl id)) ids;
        Buffer.add_string buf "  }\n")
      modules);
  for id = 0 to Circuit.num_nodes c - 1 do
    Array.iter
      (fun dst ->
        Buffer.add_string buf
          (Printf.sprintf "  %s -> %s;\n"
             (escape (Circuit.node_name c id))
             (escape (Circuit.node_name c dst))))
      (Circuit.fanouts c id)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ?module_of_gate path c =
  Iddq_util.Io.write_file_atomic path (of_circuit ?module_of_gate c)
