module Stuck_at = Iddq_defects.Stuck_at
module Bridge_logic = Iddq_defects.Bridge_logic
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate
module Pattern_gen = Iddq_patterns.Pattern_gen
module Rng = Iddq_util.Rng

let c17 = Iscas.c17 ()
let node name = Option.get (Circuit.node_id_of_name c17 name)

let test_fault_list_sizes () =
  (* 11 nodes -> 22 stem faults; 6 NAND gates x 2 pins x 2 values = 24
     pin faults *)
  let full = Stuck_at.full_fault_list c17 in
  Alcotest.(check int) "full" 46 (List.length full);
  (* collapsing drops the 12 controlling-value (sa0) NAND pin faults *)
  let collapsed = Stuck_at.collapsed_fault_list c17 in
  Alcotest.(check int) "collapsed" 34 (List.length collapsed);
  (* collapsed is a subset of full *)
  List.iter
    (fun f -> Alcotest.(check bool) "subset" true (List.mem f full))
    collapsed

let test_stem_fault_changes_output () =
  (* output 22 stuck at 1: any vector driving 22 to 0 detects it.
     22 = NAND(10,16) is 0 iff 10 = 16 = 1. *)
  let fault = Stuck_at.Stem (node "22", true) in
  (* inputs (1,2,3,6,7): choose 1=0 -> 10=1; 2=0 -> 16=1 *)
  let v = [| false; false; false; false; false |] in
  Alcotest.(check bool) "detected" true (Stuck_at.detects c17 fault v)

let test_input_stem_fault () =
  let fault = Stuck_at.Stem (node "1", true) in
  (* with input 1 = 0 and 3 = 1, g10 flips if 1 is stuck at 1;
     need propagation: 10 feeds 22 with 16 = 1 *)
  let v = [| false; false; true; false; false |] in
  (* 3=1,6=0 -> 11=1; 2=0 -> 16=1: 10 good = NAND(0,1)=1, bad = NAND(1,1)=0;
     22 good = NAND(1,1)=0, bad = NAND(0,1)=1 -> detected *)
  Alcotest.(check bool) "detected at 22" true (Stuck_at.detects c17 fault v)

let test_pin_fault_local () =
  (* a pin fault only affects its own gate, not other readers of the
     stem: stuck pin 0 of gate 16 (reading net 2) *)
  let g16 = node "16" in
  let fault = Stuck_at.Pin { gate = g16; pin = 0; value = true } in
  let v = [| true; false; true; true; true |] in
  let bad = Stuck_at.faulty_eval c17 fault v in
  let good = Iddq_patterns.Logic_sim.eval c17 v in
  (* net 2 itself is unchanged *)
  Alcotest.(check bool) "stem unchanged" true (bad.(node "2") = good.(node "2"));
  (* gate 16: good = NAND(0, x) = 1; bad = NAND(1, 11) *)
  Alcotest.(check bool) "gate output changed" true
    (bad.(g16) <> good.(g16) || good.(node "11") = false)

let test_equivalence_classes_detect_identically () =
  (* a controlling-value pin fault and its output stem fault are
     detected by exactly the same vectors (single-reader pin) *)
  let g10 = node "10" in
  let pin_fault = Stuck_at.Pin { gate = g10; pin = 0; value = false } in
  let stem_fault = Stuck_at.Stem (g10, true) in
  (* NAND input sa0 ==> output sa1 *)
  Array.iter
    (fun v ->
      Alcotest.(check bool) "same detection" (Stuck_at.detects c17 stem_fault v)
        (Stuck_at.detects c17 pin_fault v))
    (Pattern_gen.exhaustive c17)

let test_collapsed_coverage_equals_full () =
  let vectors = Pattern_gen.exhaustive c17 in
  let full =
    Stuck_at.fault_simulate c17 ~vectors ~faults:(Stuck_at.full_fault_list c17)
  in
  let collapsed =
    Stuck_at.fault_simulate c17 ~vectors
      ~faults:(Stuck_at.collapsed_fault_list c17)
  in
  (* C17 is fully testable: exhaustive vectors detect everything *)
  Alcotest.(check (float 1e-9)) "full list 100%" 1.0 full.Stuck_at.coverage;
  Alcotest.(check (float 1e-9)) "collapsed 100%" 1.0 collapsed.Stuck_at.coverage

let test_fault_dropping_first_vector () =
  let vectors = Pattern_gen.exhaustive c17 in
  let faults = Stuck_at.collapsed_fault_list c17 in
  let r = Stuck_at.fault_simulate c17 ~vectors ~faults in
  Alcotest.(check int) "all faults accounted" (List.length faults) r.Stuck_at.total;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "valid first vector" true
        (v >= 0 && v < Array.length vectors))
    r.Stuck_at.first_vector

let test_undetectable_fault () =
  (* a redundant circuit: y = OR(a, NOT a) is constant 1, so y/sa1 is
     undetectable *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "na" Gate.Not [ "a" ];
  Builder.add_gate b "y" Gate.Or [ "a"; "na" ];
  Builder.add_output b "y";
  let c = Builder.freeze_exn b in
  let y = Option.get (Circuit.node_id_of_name c "y") in
  let vectors = Pattern_gen.exhaustive c in
  let r =
    Stuck_at.fault_simulate c ~vectors ~faults:[ Stuck_at.Stem (y, true) ]
  in
  Alcotest.(check int) "undetectable" 0 r.Stuck_at.detected;
  Alcotest.(check int) "one undetected" 1
    (List.length
       (Stuck_at.undetected c ~vectors ~faults:[ Stuck_at.Stem (y, true) ]))

(* ---------------- bridge logic ---------------- *)

let test_feedback_detection () =
  (* 16 feeds 22; bridging 16 with 22 is not a loop (only one
     direction), but bridging 11 with 16 where 16 reads 11...
     still one direction.  A true loop needs mutual reachability,
     impossible in a DAG - so is_feedback is always false here. *)
  Alcotest.(check bool) "DAG has no mutual reachability" false
    (Bridge_logic.is_feedback c17 (node "11") (node "16"));
  Alcotest.(check bool) "self" false
    (Bridge_logic.is_feedback c17 (node "11") (node "11"))

let test_bridge_logic_vs_iddq () =
  (* bridge between nets 10 and 11 (parallel NANDs).  IDDQ detects on
     any vector driving them apart; logic detection additionally needs
     propagation. *)
  let a = node "10" and b = node "11" in
  let vectors = Pattern_gen.exhaustive c17 in
  let iddq = Array.to_list vectors |> List.filter (Bridge_logic.iddq_detects c17 ~a ~b) in
  let logic = Array.to_list vectors |> List.filter (Bridge_logic.logic_detects c17 ~a ~b) in
  Alcotest.(check bool) "IDDQ catches some vectors" true (iddq <> []);
  (* logic detection implies IDDQ activation: a wired-AND only changes
     a value when the two nets differ *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "logic => iddq" true
        (Bridge_logic.iddq_detects c17 ~a ~b v))
    logic;
  Alcotest.(check bool) "IDDQ detects at least as many vectors" true
    (List.length iddq >= List.length logic)

let test_bridge_faulty_eval_forced_values () =
  let a = node "10" and b = node "11" in
  let v = [| true; true; true; false; true |] in
  (* 10 = NAND(1,3) = 0; 11 = NAND(3,6) = 1 -> wired-AND forces both to 0 *)
  match Bridge_logic.faulty_eval c17 ~a ~b v with
  | None -> Alcotest.fail "not a feedback bridge"
  | Some values ->
    Alcotest.(check bool) "a forced" false values.(a);
    Alcotest.(check bool) "b forced" false values.(b)

let test_iscas_new_standins () =
  let check name c ~inputs ~gates ~depth =
    Alcotest.(check string) (name ^ " name") name (Circuit.name c);
    Alcotest.(check int) (name ^ " inputs") inputs (Circuit.num_inputs c);
    Alcotest.(check int) (name ^ " gates") gates (Circuit.num_gates c);
    Alcotest.(check int) (name ^ " depth") depth
      (Iddq_netlist.Graph_algo.depth c)
  in
  check "C499" (Iscas.c499_like ()) ~inputs:41 ~gates:202 ~depth:11;
  check "C880" (Iscas.c880_like ()) ~inputs:60 ~gates:383 ~depth:24;
  check "C1355" (Iscas.c1355_like ()) ~inputs:41 ~gates:546 ~depth:24;
  (* the mixes differ: C499 is XOR-heavy, C1355 NAND-heavy *)
  let count kind c =
    Circuit.fold_gates c ~init:0 ~f:(fun acc _ k ->
        if Gate.equal k kind then acc + 1 else acc)
  in
  Alcotest.(check bool) "C499 XOR-rich" true
    (count Gate.Xor (Iscas.c499_like ()) > 40);
  Alcotest.(check bool) "C1355 NAND-rich" true
    (count Gate.Nand (Iscas.c1355_like ()) > 300)

let qcheck_logic_implies_iddq =
  QCheck.Test.make
    ~name:"wired-AND logic detection implies IDDQ activation" ~count:40
    QCheck.(triple (int_range 10 60) (int_range 1 100000) (int_range 0 1000))
    (fun (gates, seed, vseed) ->
      let rng = Rng.create seed in
      let c =
        Iddq_netlist.Generator.layered_dag ~rng ~name:"q" ~num_inputs:6
          ~num_outputs:3 ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let a = Circuit.node_of_gate c (Rng.int rng (Circuit.num_gates c)) in
      let b = Circuit.node_of_gate c (Rng.int rng (Circuit.num_gates c)) in
      if a = b then true
      else begin
        let vr = Rng.create vseed in
        let v = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool vr) in
        (not (Bridge_logic.logic_detects c ~a ~b v))
        || Bridge_logic.iddq_detects c ~a ~b v
      end)

(* The cone-restricted faulty machine works in per-chunk Bigarray
   scratch: the whole matrix costs a few words per fault (its row and
   list cells), where a boxed whole-circuit evaluation costs about a
   word per node per (fault, block). *)
let test_detection_matrix_allocation () =
  let c = Iscas.c880_like () in
  let vectors = Pattern_gen.random ~rng:(Rng.create 5) c ~count:256 in
  let faults = Stuck_at.collapsed_fault_list c in
  let nf = List.length faults in
  ignore (Stuck_at.detection_matrix c ~vectors ~faults);
  let before = Gc.minor_words () in
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  let per_fault = (Gc.minor_words () -. before) /. float_of_int nf in
  Alcotest.(check int) "one row per fault" nf
    (Array.length m.Iddq_defects.Fault_sim.rows);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per fault < 64" per_fault)
    true (per_fault < 64.0)

(* The packed kernels index CSR arrays unchecked, so a fault naming
   a node or pin the circuit does not have is rejected up front. *)
let test_malformed_faults_rejected () =
  let vectors = Pattern_gen.exhaustive c17 in
  List.iter
    (fun (what, fault) ->
      Alcotest.(check bool) what true
        (try
           ignore (Stuck_at.fault_simulate c17 ~vectors ~faults:[ fault ]);
           false
         with Invalid_argument _ -> true))
    [
      ("stem out of range", Stuck_at.Stem (Circuit.num_nodes c17, true));
      ("pin on an input", Stuck_at.Pin { gate = node "3"; pin = 0; value = true });
      ("missing pin", Stuck_at.Pin { gate = node "22"; pin = 2; value = true });
    ]

let tests =
  [
    Alcotest.test_case "fault list sizes" `Quick test_fault_list_sizes;
    Alcotest.test_case "stem fault" `Quick test_stem_fault_changes_output;
    Alcotest.test_case "input stem fault" `Quick test_input_stem_fault;
    Alcotest.test_case "pin fault local" `Quick test_pin_fault_local;
    Alcotest.test_case "equivalence classes" `Quick
      test_equivalence_classes_detect_identically;
    Alcotest.test_case "collapsed coverage" `Quick
      test_collapsed_coverage_equals_full;
    Alcotest.test_case "fault dropping" `Quick test_fault_dropping_first_vector;
    Alcotest.test_case "undetectable fault" `Quick test_undetectable_fault;
    Alcotest.test_case "feedback detection" `Quick test_feedback_detection;
    Alcotest.test_case "bridge logic vs iddq" `Quick test_bridge_logic_vs_iddq;
    Alcotest.test_case "bridge forced values" `Quick
      test_bridge_faulty_eval_forced_values;
    Alcotest.test_case "new iscas stand-ins" `Quick test_iscas_new_standins;
    Alcotest.test_case "matrix allocation per fault" `Quick
      test_detection_matrix_allocation;
    Alcotest.test_case "malformed faults rejected" `Quick
      test_malformed_faults_rejected;
    QCheck_alcotest.to_alcotest qcheck_logic_implies_iddq;
  ]
