module Charac = Iddq_analysis.Charac
module Circuit = Iddq_netlist.Circuit
module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error

let to_string p =
  let ch = Partition.charac p in
  let c = Charac.circuit ch in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# partition of %s\n" (Circuit.name c));
  List.iteri
    (fun dense m ->
      Buffer.add_string buf (Printf.sprintf "module %d:" dense);
      Array.iter
        (fun g ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Circuit.node_name c (Circuit.node_of_gate c g)))
        (Partition.members p m);
      Buffer.add_char buf '\n')
    (Partition.module_ids p);
  Buffer.contents buf

(* the words of [s], separated by runs of the blanks [String.trim]
   strips (space, tab, CR, form feed) *)
let words s =
  String.map (function '\t' | '\r' | '\012' -> ' ' | ch -> ch) s
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")

let of_string ch text =
  let c = Charac.circuit ch in
  let n = Charac.num_gates ch in
  let assignment = Array.make n (-1) in
  let module_count = ref 0 in
  let parse_line _ line =
    match String.index_opt line ':' with
    | None -> Io.reject "expected 'module K: nets'"
    | Some colon ->
      let header = String.trim (String.sub line 0 colon) in
      (match words header with
      | [ "module"; k ] when int_of_string_opt k = Some !module_count -> ()
      | [ "module"; _ ] -> Io.reject "module ids must be dense and in order"
      | _ -> Io.reject (Printf.sprintf "bad module header %S" header));
      let m = !module_count in
      incr module_count;
      let nets =
        words (String.sub line (colon + 1) (String.length line - colon - 1))
      in
      if nets = [] then Io.reject "empty module";
      List.iter
        (fun net ->
          match Circuit.node_id_of_name c net with
          | None -> Io.reject (Printf.sprintf "unknown net %S" net)
          | Some id ->
            if not (Circuit.is_gate c id) then
              Io.reject (Printf.sprintf "%S is a primary input" net);
            let g = Circuit.gate_of_node c id in
            if assignment.(g) >= 0 then
              Io.reject (Printf.sprintf "%S listed twice" net);
            assignment.(g) <- m)
        nets
  in
  Result.bind (Io.iter_lines text parse_line) (fun () ->
      if !module_count = 0 then Error (Io_error.make "no modules")
      else
        match
          Array.to_seq assignment
          |> Seq.mapi (fun g m -> (g, m))
          |> Seq.find (fun (_, m) -> m < 0)
        with
        | Some (g, _) ->
          Error
            (Io_error.make
               (Printf.sprintf "gate %S is not assigned to any module"
                  (Circuit.node_name c (Circuit.node_of_gate c g))))
        | None -> Ok (Partition.create ch ~assignment))

let write_file path p = Io.write_file_atomic path (to_string p)

let read_file ch path = Io.parse_file path (of_string ch)
