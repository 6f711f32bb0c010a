module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Iscas = Iddq_netlist.Iscas
module Logic_sim = Iddq_patterns.Logic_sim

let test_c17_structure () =
  let c = Iscas.c17 () in
  Alcotest.(check int) "inputs" 5 (Circuit.num_inputs c);
  Alcotest.(check int) "outputs" 2 (Circuit.num_outputs c);
  Alcotest.(check int) "gates" 6 (Circuit.num_gates c);
  Alcotest.(check int) "depth" 3 (Circuit.depth c);
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    Alcotest.(check bool) "all NAND" true (Gate.equal (Circuit.gate_kind c id) Gate.Nand)
  done

let test_c17_function () =
  (* C17: out22 = NAND(g10, g16), out23 = NAND(g16, g19) with
     g10 = NAND(i1,i3), g11 = NAND(i3,i6), g16 = NAND(i2,g11),
     g19 = NAND(g11,i7).  Check against a reference evaluation over
     all 32 input vectors. *)
  let c = Iscas.c17 () in
  let reference i1 i2 i3 i6 i7 =
    let nand a b = not (a && b) in
    let g10 = nand i1 i3 and g11 = nand i3 i6 in
    let g16 = nand i2 g11 in
    let g19 = nand g11 i7 in
    (nand g10 g16, nand g16 g19)
  in
  for v = 0 to 31 do
    let bit i = (v lsr i) land 1 = 1 in
    let inputs = [| bit 0; bit 1; bit 2; bit 3; bit 4 |] in
    let values = Logic_sim.eval c inputs in
    let out = Logic_sim.output_values c values in
    (* input order in the netlist: 1, 2, 3, 6, 7 *)
    let e22, e23 = reference inputs.(0) inputs.(1) inputs.(2) inputs.(3) inputs.(4) in
    Alcotest.(check bool) (Printf.sprintf "out22 v=%d" v) e22 out.(0);
    Alcotest.(check bool) (Printf.sprintf "out23 v=%d" v) e23 out.(1)
  done

let test_c17_paper_names () =
  let c = Iscas.c17 () in
  Array.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true
        (Circuit.node_id_of_name c name <> None))
    Iscas.c17_paper_gate_names;
  Alcotest.(check int) "six paper gates" 6
    (Array.length Iscas.c17_paper_gate_names)

let check_suite_entry name c ~inputs ~outputs ~gates ~depth =
  Alcotest.(check string) (name ^ " name") name (Circuit.name c);
  Alcotest.(check int) (name ^ " inputs") inputs (Circuit.num_inputs c);
  Alcotest.(check int) (name ^ " outputs") outputs (Circuit.num_outputs c);
  Alcotest.(check int) (name ^ " gates") gates (Circuit.num_gates c);
  Alcotest.(check int) (name ^ " depth") depth (Circuit.depth c);
  Alcotest.(check (result unit string)) (name ^ " valid") (Ok ())
    (Circuit.validate c)

let test_suite_characteristics () =
  check_suite_entry "C432" (Iscas.c432_like ()) ~inputs:36 ~outputs:7 ~gates:160
    ~depth:17;
  check_suite_entry "C1908" (Iscas.c1908_like ()) ~inputs:33 ~outputs:25
    ~gates:880 ~depth:40;
  check_suite_entry "C2670" (Iscas.c2670_like ()) ~inputs:233 ~outputs:140
    ~gates:1193 ~depth:32;
  check_suite_entry "C3540" (Iscas.c3540_like ()) ~inputs:50 ~outputs:22
    ~gates:1669 ~depth:47

let test_suite_large_members () =
  check_suite_entry "C5315" (Iscas.c5315_like ()) ~inputs:178 ~outputs:123
    ~gates:2307 ~depth:49;
  check_suite_entry "C6288" (Iscas.c6288_like ()) ~inputs:32 ~outputs:32
    ~gates:2416 ~depth:124;
  check_suite_entry "C7552" (Iscas.c7552_like ()) ~inputs:207 ~outputs:108
    ~gates:3512 ~depth:43

let test_suite_deterministic () =
  let a = Iscas.c1908_like () and b = Iscas.c1908_like () in
  Alcotest.(check string) "identical stand-ins"
    (Iddq_netlist.Bench_io.to_string a)
    (Iddq_netlist.Bench_io.to_string b)

let test_table1_suite_order () =
  let names = List.map fst (Iscas.table1_suite ()) in
  Alcotest.(check (list string)) "publication order"
    [ "C1908"; "C2670"; "C3540"; "C5315"; "C6288"; "C7552" ]
    names

let test_by_name () =
  (match Iscas.by_name "c432" with
  | Some c ->
    Alcotest.(check string) "case-insensitive lookup"
      (Iddq_netlist.Bench_io.to_string (Iscas.c432_like ()))
      (Iddq_netlist.Bench_io.to_string c)
  | None -> Alcotest.fail "c432 should resolve");
  Alcotest.(check bool) "unknown name" true (Iscas.by_name "C9999" = None)

let test_names_catalog () =
  Alcotest.(check int) "eleven circuits" 11 (List.length Iscas.names);
  Alcotest.(check bool) "C17 listed" true (List.mem "C17" Iscas.names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " resolves") true (Iscas.by_name n <> None))
    Iscas.names

let tests =
  [
    Alcotest.test_case "c17 structure" `Quick test_c17_structure;
    Alcotest.test_case "c17 function" `Quick test_c17_function;
    Alcotest.test_case "c17 paper gate names" `Quick test_c17_paper_names;
    Alcotest.test_case "suite characteristics" `Quick test_suite_characteristics;
    Alcotest.test_case "suite large members" `Slow test_suite_large_members;
    Alcotest.test_case "suite deterministic" `Quick test_suite_deterministic;
    Alcotest.test_case "table1 order" `Quick test_table1_suite_order;
    Alcotest.test_case "by_name lookup" `Quick test_by_name;
    Alcotest.test_case "names catalog" `Slow test_names_catalog;
  ]
