(* Edge cases and small utilities not covered elsewhere. *)

module Timing = Iddq_analysis.Timing
module Charac = Iddq_analysis.Charac
module Generator = Iddq_netlist.Generator
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Library = Iddq_celllib.Library
module Cell = Iddq_celllib.Cell
module Gate = Iddq_netlist.Gate
module Rng = Iddq_util.Rng

let make circuit = Charac.make ~library:Library.default circuit

let test_critical_path_chain () =
  let ch = make (Generator.chain ~length:6 ()) in
  let path = Timing.critical_path ch ~gate_delay:(Charac.delay ch) in
  Alcotest.(check (list int)) "whole chain" [ 0; 1; 2; 3; 4; 5 ] path

let test_critical_path_delays_sum () =
  let rng = Rng.create 2 in
  let circuit =
    Generator.layered_dag ~rng ~name:"t" ~num_inputs:8 ~num_outputs:4
      ~num_gates:120 ~depth:10 ()
  in
  let ch = make circuit in
  let delay = Charac.delay ch in
  let path = Timing.critical_path ch ~gate_delay:delay in
  let total = List.fold_left (fun acc g -> acc +. delay g) 0.0 path in
  Alcotest.(check (float 1e-15)) "path delays sum to the longest path"
    (Timing.longest_path ch ~gate_delay:delay)
    total;
  (* every consecutive pair is an actual edge *)
  let c = Charac.circuit ch in
  let rec edges = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "consecutive gates connected" true
        (Array.mem (Circuit.node_of_gate c a) (Circuit.fanins c (Circuit.node_of_gate c b)));
      edges rest
    | [ _ ] | [] -> ()
  in
  edges path;
  (* the critical path's gates have zero slack *)
  let slacks = Timing.slacks ch ~gate_delay:delay in
  List.iter
    (fun g -> Alcotest.(check (float 1e-12)) "zero slack on the path" 0.0 slacks.(g))
    path

let test_critical_path_c17 () =
  let ch = make (Iscas.c17 ()) in
  let path = Timing.critical_path ch ~gate_delay:(Charac.delay ch) in
  Alcotest.(check int) "three levels" 3 (List.length path)

let test_cell_array_gate_bounds () =
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Generator.cell_array_gate ~rows:3 ~cols:3 ~r:3 ~c:0);
       false
     with Invalid_argument _ -> true)

let test_chain_requires_unary_kind () =
  Alcotest.(check bool) "NAND chain rejected" true
    (try
       ignore (Generator.chain ~length:3 ~kind:Gate.Nand ());
       false
     with Invalid_argument _ -> true)

let test_scale_for_fanin_one_input () =
  (* derating only kicks in above the 2-input base *)
  let c = Library.cell Library.default Gate.Not in
  Alcotest.(check bool) "1-input unchanged" true (Cell.scale_for_fanin c 1 = c)

let test_dot_escapes_quotes () =
  let b = Iddq_netlist.Builder.create () in
  Iddq_netlist.Builder.add_input b "a\"b";
  Iddq_netlist.Builder.add_gate b "y" Gate.Not [ "a\"b" ];
  Iddq_netlist.Builder.add_output b "y";
  let c = Iddq_netlist.Builder.freeze_exn b in
  let dot = Iddq_netlist.Dot.of_circuit c in
  Alcotest.(check bool) "escaped quote present" true
    (String.length dot > 0
    &&
    let rec find i =
      i + 1 < String.length dot
      && ((dot.[i] = '\\' && dot.[i + 1] = '"') || find (i + 1))
    in
    find 0)

let test_report_table_mismatched_modules () =
  (* when the two methods land on different module counts the table
     shows both *)
  let row =
    {
      Iddq.Report.circuit_name = "X";
      num_modules_standard = 3;
      num_modules_evolution = 2;
      area_standard = 2.0;
      area_evolution = 1.0;
      area_overhead_percent = 100.0;
      delay_overhead_standard_percent = 0.0;
      delay_overhead_evolution_percent = 0.0;
      test_time_overhead_standard_percent = 0.0;
      test_time_overhead_evolution_percent = 0.0;
    }
  in
  let rendered = Iddq_util.Table.render (Iddq.Report.table [ row ]) in
  let contains sub =
    let n = String.length rendered and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub rendered i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "shows 3/2" true (contains "3/2")

let test_activity_pair_count () =
  let circuit = Generator.chain ~length:3 () in
  let ch = make circuit in
  let t =
    Iddq_analysis.Activity.measure ch ~gates:[| 0; 1; 2 |]
      ~vectors:[| [| true |]; [| false |]; [| false |]; [| true |] |]
  in
  Alcotest.(check int) "three pairs" 3
    (Array.length t.Iddq_analysis.Activity.toggles_per_pair)

let test_pipeline_rejects_gateless () =
  let b = Iddq_netlist.Builder.create () in
  Iddq_netlist.Builder.add_input b "a";
  Iddq_netlist.Builder.add_output b "a";
  let c = Iddq_netlist.Builder.freeze_exn b in
  Alcotest.(check bool) "gateless rejected" true
    (Iddq.Pipeline.run_result Iddq.Pipeline.Standard c
    = Error Iddq.Pipeline.Empty_circuit)

let test_int_in_range_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "min > max"
    (Invalid_argument "Rng.int_in_range: min > max") (fun () ->
      ignore (Rng.int_in_range rng ~min:3 ~max:2))

let tests =
  [
    Alcotest.test_case "critical path chain" `Quick test_critical_path_chain;
    Alcotest.test_case "critical path sums" `Quick test_critical_path_delays_sum;
    Alcotest.test_case "critical path c17" `Quick test_critical_path_c17;
    Alcotest.test_case "cell array bounds" `Quick test_cell_array_gate_bounds;
    Alcotest.test_case "chain kind check" `Quick test_chain_requires_unary_kind;
    Alcotest.test_case "fanin scale base" `Quick test_scale_for_fanin_one_input;
    Alcotest.test_case "dot escapes quotes" `Quick test_dot_escapes_quotes;
    Alcotest.test_case "report table mismatch" `Quick
      test_report_table_mismatched_modules;
    Alcotest.test_case "activity pair count" `Quick test_activity_pair_count;
    Alcotest.test_case "pipeline gateless" `Quick test_pipeline_rejects_gateless;
    Alcotest.test_case "int_in_range validation" `Quick
      test_int_in_range_validation;
  ]
