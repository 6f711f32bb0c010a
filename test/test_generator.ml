module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Generator = Iddq_netlist.Generator
module Logic_sim = Iddq_patterns.Logic_sim
module Rng = Iddq_util.Rng

let test_layered_dag_exact_counts () =
  let rng = Rng.create 1 in
  let c =
    Generator.layered_dag ~rng ~name:"t" ~num_inputs:10 ~num_outputs:5
      ~num_gates:200 ~depth:15 ()
  in
  Alcotest.(check int) "gates" 200 (Circuit.num_gates c);
  Alcotest.(check int) "inputs" 10 (Circuit.num_inputs c);
  Alcotest.(check int) "outputs" 5 (Circuit.num_outputs c);
  Alcotest.(check int) "depth exact" 15 (Circuit.depth c);
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Circuit.validate c)

let test_layered_dag_deterministic () =
  let build () =
    let rng = Rng.create 77 in
    Generator.layered_dag ~rng ~name:"t" ~num_inputs:6 ~num_outputs:3
      ~num_gates:80 ~depth:10 ()
  in
  let a = build () and b = build () in
  Alcotest.(check string) "same netlist"
    (Iddq_netlist.Bench_io.to_string a)
    (Iddq_netlist.Bench_io.to_string b)

let test_layered_dag_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "gates < depth"
    (Invalid_argument "Generator.layered_dag: need num_gates >= depth >= 1")
    (fun () ->
      ignore
        (Generator.layered_dag ~rng ~name:"t" ~num_inputs:4 ~num_outputs:1
           ~num_gates:3 ~depth:5 ()))

let test_cell_array_structure () =
  let rows = 4 and cols = 5 in
  let c = Generator.cell_array ~rows ~cols in
  Alcotest.(check int) "gates" (rows * cols) (Circuit.num_gates c);
  Alcotest.(check int) "inputs" rows (Circuit.num_inputs c);
  Alcotest.(check int) "outputs" rows (Circuit.num_outputs c);
  Alcotest.(check int) "depth = cols" cols (Circuit.depth c);
  (* gate-index mapping and per-column depth *)
  for r = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let g = Generator.cell_array_gate ~rows ~cols ~r ~c:col in
      Alcotest.(check int)
        (Printf.sprintf "depth of cell (%d,%d)" r col)
        (col + 1)
        (Circuit.level c (Circuit.node_of_gate c g))
    done
  done;
  (* cell kinds cycle with the row *)
  let g_r0 = Generator.cell_array_gate ~rows ~cols ~r:0 ~c:2 in
  let g_r1 = Generator.cell_array_gate ~rows ~cols ~r:1 ~c:2 in
  let g_r2 = Generator.cell_array_gate ~rows ~cols ~r:2 ~c:2 in
  let kind g = Circuit.gate_kind c (Circuit.node_of_gate c g) in
  Alcotest.(check bool) "row 0 NAND" true (Gate.equal (kind g_r0) Gate.Nand);
  Alcotest.(check bool) "row 1 NOR" true (Gate.equal (kind g_r1) Gate.Nor);
  Alcotest.(check bool) "row 2 AND" true (Gate.equal (kind g_r2) Gate.And)

let test_chain_and_tree () =
  let c = Generator.chain ~length:7 () in
  Alcotest.(check int) "chain gates" 7 (Circuit.num_gates c);
  Alcotest.(check int) "chain depth" 7 (Circuit.depth c);
  let t = Generator.balanced_tree ~depth:4 () in
  Alcotest.(check int) "tree leaves" 16 (Circuit.num_inputs t);
  Alcotest.(check int) "tree gates" 15 (Circuit.num_gates t);
  Alcotest.(check int) "tree depth" 4 (Circuit.depth t)

let multiplier_value c a_val b_val n =
  let inputs = Array.make (2 * n) false in
  for i = 0 to n - 1 do
    inputs.(i) <- (a_val lsr i) land 1 = 1;
    inputs.(n + i) <- (b_val lsr i) land 1 = 1
  done;
  let values = Logic_sim.eval c inputs in
  let out = Logic_sim.output_values c values in
  Array.to_list out
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let test_multiplier_correct () =
  let n = 4 in
  let c = Generator.multiplier_array ~n in
  Alcotest.(check int) "inputs" (2 * n) (Circuit.num_inputs c);
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Circuit.validate c);
  for a = 0 to 15 do
    for b = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d * %d" a b)
        (a * b)
        (multiplier_value c a b n)
    done
  done

let qcheck_multiplier =
  QCheck.Test.make ~name:"array multiplier computes products (n=5)" ~count:60
    QCheck.(pair (int_range 0 31) (int_range 0 31))
    (fun (a, b) ->
      let c = Generator.multiplier_array ~n:5 in
      multiplier_value c a b 5 = a * b)

let qcheck_layered_dag_wellformed =
  QCheck.Test.make ~name:"layered dag is valid with exact counts" ~count:40
    QCheck.(triple (int_range 5 120) (int_range 2 10) (int_range 1 100000))
    (fun (gates, depth, seed) ->
      QCheck.assume (gates >= depth);
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth ()
      in
      Circuit.num_gates c = gates
      && Circuit.depth c = depth
      && Circuit.validate c = Ok ())

let tests =
  [
    Alcotest.test_case "layered dag exact counts" `Quick
      test_layered_dag_exact_counts;
    Alcotest.test_case "layered dag deterministic" `Quick
      test_layered_dag_deterministic;
    Alcotest.test_case "layered dag validation" `Quick test_layered_dag_validation;
    Alcotest.test_case "cell array structure" `Quick test_cell_array_structure;
    Alcotest.test_case "chain and tree" `Quick test_chain_and_tree;
    Alcotest.test_case "multiplier 4x4 exhaustive" `Slow test_multiplier_correct;
    QCheck_alcotest.to_alcotest qcheck_multiplier;
    QCheck_alcotest.to_alcotest qcheck_layered_dag_wellformed;
  ]
