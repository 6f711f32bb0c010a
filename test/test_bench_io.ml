module Bench_io = Iddq_netlist.Bench_io
module Io_error = Iddq_util.Io_error
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Iscas = Iddq_netlist.Iscas

let parse_ok text =
  match Bench_io.parse_string text with
  | Ok c -> c
  | Error e -> Alcotest.failf "parse failed: %s" (Io_error.to_string e)

let parse_err text =
  match Bench_io.parse_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Io_error.to_string e

let test_parse_minimal () =
  let c =
    parse_ok "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
  in
  Alcotest.(check int) "gates" 1 (Circuit.num_gates c);
  Alcotest.(check int) "inputs" 2 (Circuit.num_inputs c);
  let y = Option.get (Circuit.node_id_of_name c "y") in
  Alcotest.(check bool) "kind" true (Gate.equal (Circuit.gate_kind c y) Gate.Nand)

let test_comments_and_blanks () =
  let c =
    parse_ok
      "# a comment\n\nINPUT(a)\n  # indented comment\nOUTPUT(y)\ny = NOT(a)  \
       # trailing\n\n"
  in
  Alcotest.(check int) "gates" 1 (Circuit.num_gates c)

let test_case_insensitive_keywords () =
  let c = parse_ok "input(a)\noutput(y)\ny = nand(a, a)\n" in
  Alcotest.(check int) "gates" 1 (Circuit.num_gates c)

let test_error_line_numbers () =
  let e = parse_err "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" in
  Alcotest.(check bool) ("mentions line 3: " ^ e) true
    (String.length e >= 6 && String.sub e 0 6 = "line 3")

let test_error_garbage () =
  let e = parse_err "INPUT(a)\nwhat is this\n" in
  Alcotest.(check bool) ("line 2: " ^ e) true
    (String.length e >= 6 && String.sub e 0 6 = "line 2")

let test_error_undefined () =
  let e = parse_err "INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n" in
  Alcotest.(check bool) ("undefined: " ^ e) true
    (String.length e > 0)

let test_roundtrip_c17 () =
  let c = Iscas.c17 () in
  let c' =
    match Bench_io.parse_string ~name:"c17" (Bench_io.to_string c) with
    | Ok c' -> c'
    | Error e -> Alcotest.failf "reparse failed: %s" (Io_error.to_string e)
  in
  Alcotest.(check int) "nodes" (Circuit.num_nodes c) (Circuit.num_nodes c');
  Alcotest.(check int) "outputs" (Circuit.num_outputs c) (Circuit.num_outputs c');
  (* same connectivity by name *)
  let fanin_names c cc =
    Array.to_list cc |> List.map (Circuit.node_name c) |> List.sort compare
  in
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    let name = Circuit.node_name c id in
    let id' = Option.get (Circuit.node_id_of_name c' name) in
    Alcotest.(check bool) ("kind of " ^ name) true
      (Gate.equal (Circuit.gate_kind c id) (Circuit.gate_kind c' id'));
    Alcotest.(check (list string)) ("fanins of " ^ name)
      (fanin_names c (Circuit.fanins c id))
      (fanin_names c' (Circuit.fanins c' id'))
  done

let test_roundtrip_generated () =
  let rng = Iddq_util.Rng.create 99 in
  let c =
    Iddq_netlist.Generator.layered_dag ~rng ~name:"rt" ~num_inputs:8
      ~num_outputs:4 ~num_gates:60 ~depth:8 ()
  in
  match Bench_io.parse_string (Bench_io.to_string c) with
  | Error e -> Alcotest.failf "reparse failed: %s" (Io_error.to_string e)
  | Ok c' ->
    Alcotest.(check int) "nodes" (Circuit.num_nodes c) (Circuit.num_nodes c');
    Alcotest.(check int) "gates" (Circuit.num_gates c) (Circuit.num_gates c');
    Alcotest.(check (result unit string)) "valid" (Ok ()) (Circuit.validate c')

let test_file_io () =
  let path = Filename.temp_file "iddq_test" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Bench_io.write_file path (Iscas.c17 ()) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_file: %s" (Io_error.to_string e));
      match Bench_io.parse_file path with
      | Ok c -> Alcotest.(check int) "gates" 6 (Circuit.num_gates c)
      | Error e -> Alcotest.failf "parse_file: %s" (Io_error.to_string e))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"bench roundtrip preserves structure" ~count:25
    QCheck.(pair (int_range 5 80) (int_range 1 60000))
    (fun (gates, seed) ->
      let rng = Iddq_util.Rng.create seed in
      let depth = 1 + (gates / 10) in
      let c =
        Iddq_netlist.Generator.layered_dag ~rng ~name:"q" ~num_inputs:4
          ~num_outputs:2 ~num_gates:gates ~depth ()
      in
      match Bench_io.parse_string (Bench_io.to_string c) with
      | Error _ -> false
      | Ok c' ->
        Circuit.num_gates c = Circuit.num_gates c'
        && Circuit.num_inputs c = Circuit.num_inputs c'
        && Circuit.num_outputs c = Circuit.num_outputs c')

let tests =
  [
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "case-insensitive" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "error on garbage" `Quick test_error_garbage;
    Alcotest.test_case "error on undefined" `Quick test_error_undefined;
    Alcotest.test_case "roundtrip c17" `Quick test_roundtrip_c17;
    Alcotest.test_case "roundtrip generated" `Quick test_roundtrip_generated;
    Alcotest.test_case "file io" `Quick test_file_io;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
  ]
