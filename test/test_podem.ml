module Podem = Iddq_atpg.Podem
module Atpg = Iddq_atpg.Atpg
module Testset = Iddq_atpg.Testset
module Stuck_at = Iddq_defects.Stuck_at
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate
module Rng = Iddq_util.Rng

let c17 = Iscas.c17 ()
let generate c fault = Podem.generate (Podem.prepare c) fault
let node name = Option.get (Circuit.node_id_of_name c17 name)

let check_cube_detects c fault = function
  | Podem.Test cube ->
    (* any concretization must detect (the cube is a test cube) *)
    let rng = Rng.create 77 in
    for _ = 1 to 5 do
      let v = Podem.concretize ~rng cube in
      Alcotest.(check bool) "cube detects" true (Stuck_at.detects c fault v)
    done
  | Podem.Untestable -> Alcotest.fail "expected a test, got Untestable"
  | Podem.Aborted -> Alcotest.fail "expected a test, got Aborted"

let test_c17_all_faults_testable () =
  (* C17 is fully testable: PODEM must find a test for every fault *)
  List.iter
    (fun fault ->
      check_cube_detects c17 fault (generate c17 fault))
    (Stuck_at.full_fault_list c17)

let test_stem_fault_on_input () =
  let fault = Stuck_at.Stem (node "3", false) in
  check_cube_detects c17 fault (generate c17 fault)

let test_pin_fault () =
  let fault = Stuck_at.Pin { gate = node "16"; pin = 1; value = true } in
  check_cube_detects c17 fault (generate c17 fault)

let test_redundant_fault_untestable () =
  (* y = OR(a, NOT a) == 1: y/sa1 is undetectable *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "na" Gate.Not [ "a" ];
  Builder.add_gate b "y" Gate.Or [ "a"; "na" ];
  Builder.add_output b "y";
  let c = Builder.freeze_exn b in
  let y = Option.get (Circuit.node_id_of_name c "y") in
  (match generate c (Stuck_at.Stem (y, true)) with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "redundant fault got a test"
  | Podem.Aborted -> Alcotest.fail "tiny circuit aborted");
  (* ... and y/sa0 is easy *)
  check_cube_detects c (Stuck_at.Stem (y, false))
    (generate c (Stuck_at.Stem (y, false)))

let test_xor_propagation () =
  (* propagation through XOR requires no side values: exercise the
     parity paths *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_input b "c";
  Builder.add_gate b "x1" Gate.Xor [ "a"; "b" ];
  Builder.add_gate b "y" Gate.Xor [ "x1"; "c" ];
  Builder.add_output b "y";
  let c = Builder.freeze_exn b in
  let a = Option.get (Circuit.node_id_of_name c "a") in
  check_cube_detects c (Stuck_at.Stem (a, true))
    (generate c (Stuck_at.Stem (a, true)))

let test_dont_cares_marked () =
  (* a fault deep on one side should leave unrelated inputs as X *)
  let fault = Stuck_at.Stem (node "22", true) in
  match generate c17 fault with
  | Podem.Test cube ->
    Alcotest.(check int) "cube width" 5 (Array.length cube);
    Alcotest.(check bool) "at least one assignment" true
      (Array.exists (fun x -> x <> None) cube)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "no test for 22/sa1"

let test_malformed_faults_rejected () =
  let podem = Podem.prepare c17 in
  List.iter
    (fun (what, fault) ->
      Alcotest.(check bool) what true
        (try
           ignore (Podem.generate podem fault);
           false
         with Invalid_argument _ -> true))
    [
      ("stem out of range", Stuck_at.Stem (Circuit.num_nodes c17, true));
      ("pin on an input", Stuck_at.Pin { gate = node "3"; pin = 0; value = true });
      ("missing pin", Stuck_at.Pin { gate = node "22"; pin = 2; value = true });
    ];
  (* the context is still usable after a rejected fault *)
  check_cube_detects c17 (Stuck_at.Stem (node "22", true))
    (Podem.generate podem (Stuck_at.Stem (node "22", true)))

(* PODEM against the scalar oracle on small random circuits, every
   collapsed fault: a [Test] cube detects under any fill of its
   don't-cares, and [Untestable] means no vector of the exhaustive
   input space detects the fault. *)
let qcheck_podem_matches_detects =
  QCheck.Test.make ~name:"PODEM verdicts = exhaustive Stuck_at.detects"
    ~count:25
    QCheck.(triple (int_range 2 12) (int_range 4 30) (int_range 1 100000))
    (fun (num_inputs, gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Iddq_netlist.Generator.layered_dag ~rng ~name:"q" ~num_inputs
          ~num_outputs:(1 + (gates mod 3)) ~num_gates:gates
          ~depth:(1 + (gates / 6)) ()
      in
      let podem = Podem.prepare c in
      let space = Iddq_patterns.Pattern_gen.exhaustive c in
      List.for_all
        (fun fault ->
          match Podem.generate podem fault with
          | Podem.Test cube ->
            let fill b = Array.map (Option.value ~default:b) cube in
            Stuck_at.detects c fault (fill false)
            && Stuck_at.detects c fault (fill true)
            && List.for_all
                 (fun _ ->
                   Stuck_at.detects c fault (Podem.concretize ~rng cube))
                 [ 1; 2; 3 ]
          | Podem.Untestable ->
            not (Array.exists (Stuck_at.detects c fault) space)
          | Podem.Aborted -> true)
        (Stuck_at.collapsed_fault_list c))

(* Complete test sets: the Atpg facade's generation loop (random
   vectors, PODEM top-up, fault dropping) over these PODEM cubes. *)

let generate_ok ?config c faults =
  match Atpg.generate_result ?config c faults with
  | Ok r -> r
  | Error e -> Alcotest.fail (Atpg.error_to_string e)

let test_atpg_set_c17 () =
  let config = Atpg.config ~seed:13 ~random_vectors:0 () in
  let r = generate_ok ~config c17 (Stuck_at.collapsed_fault_list c17) in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Atpg.coverage;
  Alcotest.(check (float 1e-9)) "full efficiency" 1.0 r.Atpg.efficiency;
  Alcotest.(check int) "nothing untestable" 0 r.Atpg.stats.Testset.untestable;
  Alcotest.(check int) "nothing aborted" 0 r.Atpg.stats.Testset.aborted;
  Alcotest.(check bool) "set is small" true (r.Atpg.vectors_before <= 16)

let test_atpg_set_tops_up_random () =
  let circuit = Iscas.c432_like () in
  let faults = Stuck_at.collapsed_fault_list circuit in
  (* the facade draws its random vectors first from an rng seeded with
     [seed]: the same 32 vectors as this baseline *)
  let initial =
    Iddq_patterns.Pattern_gen.random ~rng:(Rng.create 17) circuit ~count:32
  in
  let random_only = Stuck_at.fault_simulate circuit ~vectors:initial ~faults in
  let config = Atpg.config ~seed:17 ~random_vectors:32 () in
  let r = generate_ok ~config circuit faults in
  Alcotest.(check bool)
    (Printf.sprintf "topped up %.1f%% -> %.1f%%"
       (100.0 *. random_only.Stuck_at.coverage)
       (100.0 *. r.Atpg.coverage))
    true
    (r.Atpg.coverage > random_only.Stuck_at.coverage);
  Alcotest.(check bool)
    (Printf.sprintf "high ATPG efficiency (%.1f%%)" (100.0 *. r.Atpg.efficiency))
    true
    (r.Atpg.efficiency > 0.9);
  Alcotest.(check bool) "initial vectors kept" true
    (Array.length r.Atpg.all_vectors >= 32
    && Array.sub r.Atpg.all_vectors 0 32 = initial)

let test_atpg_set_empty_faults () =
  (* the loop is vacuous on no faults; the facade reports it *)
  let gen = Testset.generate ~rng:(Rng.create 1) c17 [] in
  Alcotest.(check (float 0.0)) "vacuous" 1.0 gen.Testset.coverage;
  Alcotest.(check int) "no vectors" 0 (Array.length gen.Testset.vectors);
  match Atpg.generate_result c17 [] with
  | Error Atpg.Empty_fault_list -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Atpg.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Empty_fault_list"

let tests =
  [
    Alcotest.test_case "c17 all faults" `Quick test_c17_all_faults_testable;
    Alcotest.test_case "input stem fault" `Quick test_stem_fault_on_input;
    Alcotest.test_case "pin fault" `Quick test_pin_fault;
    Alcotest.test_case "redundant untestable" `Quick
      test_redundant_fault_untestable;
    Alcotest.test_case "xor propagation" `Quick test_xor_propagation;
    Alcotest.test_case "don't cares" `Quick test_dont_cares_marked;
    Alcotest.test_case "malformed faults rejected" `Quick
      test_malformed_faults_rejected;
    QCheck_alcotest.to_alcotest qcheck_podem_matches_detects;
    Alcotest.test_case "complete set c17" `Quick test_atpg_set_c17;
    Alcotest.test_case "complete set top-up" `Slow test_atpg_set_tops_up_random;
    Alcotest.test_case "complete set empty" `Quick test_atpg_set_empty_faults;
  ]
