module Charac = Iddq_analysis.Charac
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library

let make circuit = Charac.make ~library:Library.default circuit

let gate_of c name =
  Circuit.gate_of_node c (Option.get (Circuit.node_id_of_name c name))

let slots ch g =
  let out = ref [] in
  Charac.iter_switch_slots ch g (fun s -> out := s :: !out);
  List.rev !out

let test_c17_transition_times () =
  (* Hand-computed T(g) for C17:
     g10 = NAND(i1,i3): {1}
     g11 = NAND(i3,i6): {1}
     g16 = NAND(i2,g11): {1,2}
     g19 = NAND(g11,i7): {1,2}
     g22 = NAND(g10,g16): {2,3}
     g23 = NAND(g16,g19): {2,3} *)
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  let check name expected =
    Alcotest.(check (list int)) ("T(" ^ name ^ ")") expected
      (slots ch (gate_of circuit name))
  in
  check "10" [ 1 ];
  check "11" [ 1 ];
  check "16" [ 1; 2 ];
  check "19" [ 1; 2 ];
  check "22" [ 2; 3 ];
  check "23" [ 2; 3 ]

let test_chain_transition_times () =
  let circuit = Generator.chain ~length:10 () in
  let ch = make circuit in
  for g = 0 to 9 do
    Alcotest.(check (list int))
      (Printf.sprintf "chain gate %d" g)
      [ g + 1 ] (slots ch g)
  done;
  Alcotest.(check int) "depth" 10 (Charac.depth ch)

let test_switch_slot_count () =
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  Alcotest.(check int) "g16 two slots" 2
    (Charac.switch_slot_count ch (gate_of circuit "16"));
  Alcotest.(check int) "g10 one slot" 1
    (Charac.switch_slot_count ch (gate_of circuit "10"))

let test_can_switch_at_bounds () =
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  let g = gate_of circuit "22" in
  Alcotest.(check bool) "slot 0 never" false (Charac.can_switch_at ch g 0);
  Alcotest.(check bool) "slot 2 yes" true (Charac.can_switch_at ch g 2);
  Alcotest.(check bool) "slot 1 no" false (Charac.can_switch_at ch g 1);
  Alcotest.(check bool) "beyond depth no" false (Charac.can_switch_at ch g 99)

let test_electrical_data_derated () =
  (* a 3-input gate must be slower than the base 2-input cell *)
  let b = Iddq_netlist.Builder.create () in
  List.iter (Iddq_netlist.Builder.add_input b) [ "a"; "b"; "c" ];
  Iddq_netlist.Builder.add_gate b "g2" Iddq_netlist.Gate.And [ "a"; "b" ];
  Iddq_netlist.Builder.add_gate b "g3" Iddq_netlist.Gate.And [ "a"; "b"; "c" ];
  Iddq_netlist.Builder.add_output b "g2";
  Iddq_netlist.Builder.add_output b "g3";
  let circuit = Iddq_netlist.Builder.freeze_exn b in
  let ch = make circuit in
  let g2 = gate_of circuit "g2" and g3 = gate_of circuit "g3" in
  Alcotest.(check bool) "3-input slower" true
    (Charac.delay ch g3 > Charac.delay ch g2);
  Alcotest.(check bool) "3-input leakier" true
    (Charac.leakage ch g3 > Charac.leakage ch g2)

let test_undirected_cached () =
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  let u = Charac.undirected ch in
  (* g22 is adjacent to g10 and g16 *)
  let g22 = gate_of circuit "22" in
  let neigh = Iddq_netlist.Graph_algo.neighbours u g22 in
  Alcotest.(check bool) "g22-g10 adjacency" true
    (Array.mem (gate_of circuit "10") neigh);
  Alcotest.(check bool) "g22-g16 adjacency" true
    (Array.mem (gate_of circuit "16") neigh);
  Alcotest.(check int) "cutoff from technology" 6 (Charac.separation_cutoff ch)

let qcheck_transition_times_within_depth =
  QCheck.Test.make ~name:"transition slots lie in [1, gate depth]" ~count:30
    QCheck.(pair (int_range 10 100) (int_range 1 100000))
    (fun (gates, seed) ->
      let rng = Iddq_util.Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:5 ~num_outputs:2
          ~num_gates:gates ~depth:(1 + (gates / 10)) ()
      in
      let ch = make circuit in
      let ok = ref true in
      for g = 0 to Charac.num_gates ch - 1 do
        let d = Charac.gate_depth ch g in
        (* the deepest slot is always reachable: some longest path *)
        if not (Charac.can_switch_at ch g d) then ok := false;
        Charac.iter_switch_slots ch g (fun s ->
            if s < 1 || s > d then ok := false)
      done;
      !ok)

(* The per-slot definition the word sets are checked against: one
   [bool array] per gate, built slot by slot. *)
let oracle_times circuit =
  let ni = Circuit.num_inputs circuit in
  let ng = Circuit.num_gates circuit in
  let times = Array.init ng (fun _ -> Array.make (Circuit.depth circuit + 2) false) in
  for g = 0 to ng - 1 do
    Circuit.iter_fanins circuit (g + ni) (fun src ->
        if src < ni then times.(g).(1) <- true
        else
          for slot = 1 to Circuit.level circuit src do
            if times.(src - ni).(slot) then times.(g).(slot + 1) <- true
          done)
  done;
  times

(* Depths on both sides of every word boundary: one- to four-word sets
   and each carry between words. *)
let qcheck_word_sets_match_oracle =
  QCheck.Test.make ~name:"word sets = per-slot oracle across word boundaries"
    ~count:24
    QCheck.(
      triple
        (oneofl [ 1; 62; 63; 64; 125; 126; 127; 200 ])
        (int_range 1 3) (int_range 1 100000))
    (fun (depth, width, seed) ->
      let rng = Iddq_util.Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"w" ~num_inputs:4 ~num_outputs:2
          ~num_gates:(depth * width) ~depth ()
      in
      let ch = make circuit in
      let low = Charac.with_low_power ch ~gates:[| 0; Charac.num_gates ch - 1 |] in
      let times = oracle_times circuit in
      let expected g =
        List.filter (fun s -> times.(g).(s)) (List.init (depth + 2) Fun.id)
      in
      let agrees ch g =
        let want = expected g in
        slots ch g = want
        && Charac.switch_slot_count ch g = List.length want
        && List.for_all
             (fun s -> Charac.can_switch_at ch g s = times.(g).(s))
             (List.init (depth + 2) Fun.id)
      in
      Charac.depth ch = depth
      && List.for_all
           (fun g -> agrees ch g && agrees low g)
           (List.init (Charac.num_gates ch) Fun.id))

let tests =
  [
    Alcotest.test_case "c17 transition times" `Quick test_c17_transition_times;
    Alcotest.test_case "chain transition times" `Quick test_chain_transition_times;
    Alcotest.test_case "switch slot count" `Quick test_switch_slot_count;
    Alcotest.test_case "can_switch_at bounds" `Quick test_can_switch_at_bounds;
    Alcotest.test_case "fanin derating" `Quick test_electrical_data_derated;
    Alcotest.test_case "undirected cached" `Quick test_undirected_cached;
    QCheck_alcotest.to_alcotest qcheck_transition_times_within_depth;
    QCheck_alcotest.to_alcotest qcheck_word_sets_match_oracle;
  ]
