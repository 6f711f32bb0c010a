module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Drive_select = Iddq_resynth.Drive_select
module Cell = Iddq_celllib.Cell
module Library = Iddq_celllib.Library
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Gate = Iddq_netlist.Gate
module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics

let make circuit = Charac.make ~library:Library.default circuit

let test_low_power_variant_properties () =
  let c = Library.cell Library.default Gate.Nand in
  let lp = Cell.low_power_variant c in
  Alcotest.(check bool) "lower peak" true (lp.Cell.peak_current < c.Cell.peak_current);
  Alcotest.(check bool) "slower" true (lp.Cell.delay > c.Cell.delay);
  Alcotest.(check bool) "weaker drive" true
    (lp.Cell.drive_resistance > c.Cell.drive_resistance);
  Alcotest.(check bool) "lower leakage" true (lp.Cell.leakage < c.Cell.leakage)

let test_with_low_power () =
  let ch = make (Iscas.c17 ()) in
  let ch' = Charac.with_low_power ch ~gates:[| 2; 4 |] in
  Alcotest.(check bool) "flagged" true (Charac.is_low_power ch' 2);
  Alcotest.(check bool) "others untouched" false (Charac.is_low_power ch' 0);
  Alcotest.(check bool) "original untouched" false (Charac.is_low_power ch 2);
  Alcotest.(check bool) "peak reduced" true
    (Charac.peak_current ch' 2 < Charac.peak_current ch 2);
  Alcotest.(check (float 1e-18)) "untouched gate identical"
    (Charac.peak_current ch 0) (Charac.peak_current ch' 0);
  (* idempotent *)
  let ch'' = Charac.with_low_power ch' ~gates:[| 2 |] in
  Alcotest.(check (float 1e-18)) "idempotent"
    (Charac.peak_current ch' 2) (Charac.peak_current ch'' 2)

let test_slacks_chain_zero () =
  (* every gate of a single chain is critical: slack 0 *)
  let ch = make (Generator.chain ~length:8 ()) in
  let slacks = Timing.slacks ch ~gate_delay:(Charac.delay ch) in
  Array.iter
    (fun s -> Alcotest.(check (float 1e-15)) "critical" 0.0 s)
    slacks

let test_slacks_unbalanced () =
  (* two parallel paths of different lengths reconverging: the short
     branch has positive slack, the long one none *)
  let b = Iddq_netlist.Builder.create () in
  Iddq_netlist.Builder.add_input b "a";
  Iddq_netlist.Builder.add_gate b "l1" Gate.Not [ "a" ];
  Iddq_netlist.Builder.add_gate b "l2" Gate.Not [ "l1" ];
  Iddq_netlist.Builder.add_gate b "l3" Gate.Not [ "l2" ];
  Iddq_netlist.Builder.add_gate b "s1" Gate.Not [ "a" ];
  Iddq_netlist.Builder.add_gate b "join" Gate.Nand [ "l3"; "s1" ];
  Iddq_netlist.Builder.add_output b "join";
  let circuit = Iddq_netlist.Builder.freeze_exn b in
  let ch = make circuit in
  let slacks = Timing.slacks ch ~gate_delay:(Charac.delay ch) in
  let gate name =
    Iddq_netlist.Circuit.gate_of_node circuit
      (Option.get (Iddq_netlist.Circuit.node_id_of_name circuit name))
  in
  let not_delay = (Library.cell Library.default Gate.Not).Cell.delay in
  Alcotest.(check (float 1e-15)) "long branch critical" 0.0 (slacks.(gate "l2"));
  Alcotest.(check (float 1e-15)) "short branch slack = 2 NOT delays"
    (2.0 *. not_delay)
    (slacks.(gate "s1"));
  Alcotest.(check (float 1e-15)) "join critical" 0.0 (slacks.(gate "join"))

let test_slack_never_negative_vs_longest_path () =
  let rng = Rng.create 12 in
  let circuit =
    Generator.layered_dag ~rng ~name:"t" ~num_inputs:10 ~num_outputs:5
      ~num_gates:200 ~depth:14 ()
  in
  let ch = make circuit in
  let slacks = Timing.slacks ch ~gate_delay:(Charac.delay ch) in
  Array.iter
    (fun s -> Alcotest.(check bool) "slack >= 0" true (s >= -1e-12))
    slacks

let run_resynth () =
  let ch = make (Iscas.c432_like ()) in
  let n = Charac.num_gates ch in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod 2)) in
  (p, Drive_select.optimize ~max_swaps:24 ~metrics:(Metrics.create ()) p)

let test_resynth_never_worsens_cost () =
  let _, r = run_resynth () in
  Alcotest.(check bool) "penalized cost monotone" true
    (r.Drive_select.after.Cost.penalized
    <= r.Drive_select.before.Cost.penalized +. 1e-9)

let test_resynth_reduces_area_when_it_swaps () =
  let _, r = run_resynth () in
  if r.Drive_select.swaps <> [] then
    Alcotest.(check bool) "sensor area shrinks" true
      (r.Drive_select.after.Cost.sensor_area
      < r.Drive_select.before.Cost.sensor_area)

let test_resynth_preserves_nominal_delay () =
  (* swaps are slack-bounded: the longest path must not stretch *)
  let _, r = run_resynth () in
  Alcotest.(check bool) "nominal delay preserved" true
    (r.Drive_select.after.Cost.nominal_delay
    <= r.Drive_select.before.Cost.nominal_delay +. 1e-15)

let test_resynth_respects_budget () =
  let ch = make (Iscas.c432_like ()) in
  let n = Charac.num_gates ch in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod 2)) in
  let r = Drive_select.optimize ~max_swaps:3 ~metrics:(Metrics.create ()) p in
  Alcotest.(check bool) "at most 3 swaps" true
    (List.length r.Drive_select.swaps <= 3)

let test_resynth_input_untouched () =
  let p, r = run_resynth () in
  ignore r;
  Alcotest.(check (result unit string)) "input partition intact" (Ok ())
    (Partition.check_consistent p);
  Alcotest.(check bool) "input charac not low-power" true
    (not (Charac.is_low_power (Partition.charac p) 0))

let test_resynth_swaps_are_low_power () =
  let _, r = run_resynth () in
  List.iter
    (fun (s : Drive_select.swap) ->
      Alcotest.(check bool) "swap applied" true
        (Charac.is_low_power r.Drive_select.charac s.Drive_select.gate))
    r.Drive_select.swaps

(* Every full evaluation lands in the caller's registry: the start,
   each priced candidate and the final design, and nothing else. *)
let test_resynth_records_evaluations () =
  let ch = make (Iscas.c432_like ()) in
  let n = Charac.num_gates ch in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod 2)) in
  let metrics = Metrics.create () in
  let r = Drive_select.optimize ~max_swaps:24 ~metrics p in
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "some swap priced" true (r.Drive_select.priced > 0);
  Alcotest.(check int) "full evals = 2 + priced" (2 + r.Drive_select.priced)
    (Metrics.get s Metrics.full_evals);
  Alcotest.(check int) "no delta evals" 0 (Metrics.get s Metrics.delta_evals)

let tests =
  [
    Alcotest.test_case "low power variant" `Quick test_low_power_variant_properties;
    Alcotest.test_case "with_low_power" `Quick test_with_low_power;
    Alcotest.test_case "slacks chain" `Quick test_slacks_chain_zero;
    Alcotest.test_case "slacks unbalanced" `Quick test_slacks_unbalanced;
    Alcotest.test_case "slacks non-negative" `Quick
      test_slack_never_negative_vs_longest_path;
    Alcotest.test_case "resynth monotone" `Quick test_resynth_never_worsens_cost;
    Alcotest.test_case "resynth shrinks area" `Quick
      test_resynth_reduces_area_when_it_swaps;
    Alcotest.test_case "resynth preserves delay" `Quick
      test_resynth_preserves_nominal_delay;
    Alcotest.test_case "resynth budget" `Quick test_resynth_respects_budget;
    Alcotest.test_case "resynth input untouched" `Quick test_resynth_input_untouched;
    Alcotest.test_case "resynth swaps flagged" `Quick test_resynth_swaps_are_low_power;
    Alcotest.test_case "resynth records its evaluations" `Quick
      test_resynth_records_evaluations;
  ]
