module Builder = Iddq_netlist.Builder
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate

let small () =
  let b = Builder.create ~name:"small" () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_gate b "g1" Gate.Nand [ "a"; "b" ];
  Builder.add_gate b "g2" Gate.Not [ "g1" ];
  Builder.add_output b "g2";
  b

let test_freeze_ok () =
  let c = Builder.freeze_exn (small ()) in
  Alcotest.(check int) "nodes" 4 (Circuit.num_nodes c);
  Alcotest.(check int) "inputs" 2 (Circuit.num_inputs c);
  Alcotest.(check int) "gates" 2 (Circuit.num_gates c);
  Alcotest.(check int) "outputs" 1 (Circuit.num_outputs c);
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Circuit.validate c)

let test_forward_references () =
  (* gates may reference nets declared later *)
  let b = Builder.create () in
  Builder.add_gate b "g2" Gate.Not [ "g1" ];
  Builder.add_gate b "g1" Gate.Nand [ "a"; "b" ];
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_output b "g2";
  let c = Builder.freeze_exn b in
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Circuit.validate c);
  (* topological order: g1 must precede g2 *)
  let id1 = Option.get (Circuit.node_id_of_name c "g1") in
  let id2 = Option.get (Circuit.node_id_of_name c "g2") in
  Alcotest.(check bool) "topo order" true (id1 < id2)

let expect_error b fragment =
  match Builder.freeze b with
  | Ok _ -> Alcotest.fail "expected freeze to fail"
  | Error e ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
      m = 0 || scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "error mentions %S: %s" fragment e)
      true (contains e fragment)

let test_undefined_fanin () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "g" Gate.Not [ "nope" ];
  Builder.add_output b "g";
  expect_error b "undefined"

let test_cycle_detection () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "g1" Gate.Nand [ "a"; "g2" ];
  Builder.add_gate b "g2" Gate.Nand [ "a"; "g1" ];
  Builder.add_output b "g1";
  expect_error b "cycle"

let test_no_outputs () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "g" Gate.Not [ "a" ];
  expect_error b "no outputs"

let test_output_undeclared () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "g" Gate.Not [ "a" ];
  Builder.add_output b "phantom";
  expect_error b "undeclared"

let test_duplicate_name () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder: duplicate declaration of \"a\"") (fun () ->
      Builder.add_input b "a")

let test_bad_arity () =
  let b = Builder.create () in
  Builder.add_input b "a";
  Alcotest.check_raises "NAND with 1 fanin"
    (Invalid_argument "Builder: NAND gate \"g\" with 1 fanins") (fun () ->
      Builder.add_gate b "g" Gate.Nand [ "a" ])

let test_duplicate_output_idempotent () =
  let b = small () in
  Builder.add_output b "g2";
  let c = Builder.freeze_exn b in
  Alcotest.(check int) "still one output" 1 (Circuit.num_outputs c)

let test_accessors () =
  let c = Builder.freeze_exn (small ()) in
  let g1 = Option.get (Circuit.node_id_of_name c "g1") in
  let g2 = Option.get (Circuit.node_id_of_name c "g2") in
  let a = Option.get (Circuit.node_id_of_name c "a") in
  Alcotest.(check bool) "a is input" true (Circuit.is_input c a);
  Alcotest.(check bool) "g1 is gate" true (Circuit.is_gate c g1);
  Alcotest.(check bool) "g2 is output" true (Circuit.is_output c g2);
  Alcotest.(check bool) "g1 not output" false (Circuit.is_output c g1);
  Alcotest.(check int) "g1 fanins" 2 (Circuit.fanin_count c g1);
  Alcotest.(check int) "g1 fanouts" 1 (Circuit.fanout_count c g1);
  Alcotest.(check int) "a fanout = g1" g1 (Circuit.fanouts c a).(0);
  Alcotest.(check bool) "kind" true
    (Gate.equal (Circuit.gate_kind c g1) Gate.Nand);
  (* gate indexing roundtrip *)
  let gi = Circuit.gate_of_node c g1 in
  Alcotest.(check int) "gate index roundtrip" g1 (Circuit.node_of_gate c gi)

let test_stats () =
  let c = Builder.freeze_exn (small ()) in
  let s = Circuit.stats c in
  Alcotest.(check int) "depth" 2 s.Circuit.s_depth;
  Alcotest.(check int) "gates" 2 s.Circuit.s_gates;
  Alcotest.(check bool) "kind counts" true
    (List.mem (Gate.Nand, 1) s.Circuit.s_kind_counts
    && List.mem (Gate.Not, 1) s.Circuit.s_kind_counts)

let tests =
  [
    Alcotest.test_case "freeze ok" `Quick test_freeze_ok;
    Alcotest.test_case "forward references" `Quick test_forward_references;
    Alcotest.test_case "undefined fanin" `Quick test_undefined_fanin;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "no outputs" `Quick test_no_outputs;
    Alcotest.test_case "undeclared output" `Quick test_output_undeclared;
    Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
    Alcotest.test_case "bad arity" `Quick test_bad_arity;
    Alcotest.test_case "duplicate output" `Quick test_duplicate_output_idempotent;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "stats" `Quick test_stats;
  ]
