module Builder = Iddq_netlist.Builder
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Graph_algo = Iddq_netlist.Graph_algo
module Generator = Iddq_netlist.Generator

(* a -> g1 -> g2 -> g3 (chain) plus a parallel branch a -> g4 -> g3' *)
let diamond () =
  let b = Builder.create ~name:"diamond" () in
  Builder.add_input b "a";
  Builder.add_gate b "g1" Gate.Not [ "a" ];
  Builder.add_gate b "g2" Gate.Not [ "g1" ];
  Builder.add_gate b "g4" Gate.Not [ "a" ];
  Builder.add_gate b "g3" Gate.Nand [ "g2"; "g4" ];
  Builder.add_output b "g3";
  Builder.freeze_exn b

let gate_of c name =
  Circuit.gate_of_node c (Option.get (Circuit.node_id_of_name c name))

(* Dense single-source separations through the reusable BFS: the slow
   oracle the O(visited) library paths are compared against. *)
let separations_from u ~cutoff source =
  let b = Graph_algo.make_bfs u in
  Graph_algo.bfs_from u b ~cutoff source;
  Array.init (Graph_algo.num_gates u) (Graph_algo.bfs_separation b ~cutoff)

let separation u ~cutoff g h = (separations_from u ~cutoff g).(h)

let test_depths () =
  let c = diamond () in
  let gd = Graph_algo.gate_depths c in
  Alcotest.(check int) "g1 depth" 1 gd.(gate_of c "g1");
  Alcotest.(check int) "g2 depth" 2 gd.(gate_of c "g2");
  Alcotest.(check int) "g4 depth" 1 gd.(gate_of c "g4");
  Alcotest.(check int) "g3 depth = longest" 3 gd.(gate_of c "g3");
  Alcotest.(check int) "circuit depth" 3 (Graph_algo.depth c)

let test_gates_by_depth () =
  let c = diamond () in
  let buckets = Graph_algo.gates_by_depth c in
  Alcotest.(check int) "3 levels" 3 (Array.length buckets);
  Alcotest.(check int) "level 1 has two gates" 2 (Array.length buckets.(0));
  Alcotest.(check int) "level 3 has g3" 1 (Array.length buckets.(2))

let test_chain_depth () =
  let c = Generator.chain ~length:20 () in
  Alcotest.(check int) "depth 20" 20 (Graph_algo.depth c)

let test_undirected_symmetric () =
  let c = diamond () in
  let u = Graph_algo.undirected_of_circuit c in
  for g = 0 to Circuit.num_gates c - 1 do
    Array.iter
      (fun h ->
        Alcotest.(check bool)
          (Printf.sprintf "edge %d-%d symmetric" g h)
          true
          (Array.mem g (Graph_algo.neighbours u h)))
      (Graph_algo.neighbours u g)
  done

let test_separation_values () =
  (* chain g1-g2-g3-g4-g5: separation g1..g3 = 1 (one node between) *)
  let c = Generator.chain ~length:5 () in
  let u = Graph_algo.undirected_of_circuit c in
  Alcotest.(check int) "self" 0 (separation u ~cutoff:10 0 0);
  Alcotest.(check int) "adjacent" 0 (separation u ~cutoff:10 0 1);
  Alcotest.(check int) "one between" 1 (separation u ~cutoff:10 0 2);
  Alcotest.(check int) "three between" 3 (separation u ~cutoff:10 0 4);
  Alcotest.(check int) "cutoff forces p" 2 (separation u ~cutoff:2 0 4)

let test_separation_disconnected () =
  (* two independent chains in one circuit *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_gate b "g1" Gate.Not [ "a" ];
  Builder.add_gate b "g2" Gate.Not [ "b" ];
  Builder.add_output b "g1";
  Builder.add_output b "g2";
  let c = Builder.freeze_exn b in
  let u = Graph_algo.undirected_of_circuit c in
  Alcotest.(check int) "disconnected forces p" 7
    (separation u ~cutoff:7 0 1);
  let comp = Graph_algo.connected_components u in
  Alcotest.(check bool) "two components" true (comp.(0) <> comp.(1))

let test_module_separation_brute_force () =
  let c = diamond () in
  let u = Graph_algo.undirected_of_circuit c in
  let gates = Array.init (Circuit.num_gates c) Fun.id in
  let cutoff = 6 in
  let expected = ref 0 in
  Array.iteri
    (fun i g ->
      Array.iteri
        (fun j h ->
          if j > i then expected := !expected + separation u ~cutoff g h)
        gates;
      ignore g)
    gates;
  Alcotest.(check int) "matches pairwise sum" !expected
    (Graph_algo.module_separation u ~cutoff gates)

let test_module_separation_clique_minimal () =
  (* adjacent pair: S = 0; singleton: S = 0 *)
  let c = Generator.chain ~length:3 () in
  let u = Graph_algo.undirected_of_circuit c in
  Alcotest.(check int) "singleton" 0 (Graph_algo.module_separation u ~cutoff:5 [| 1 |]);
  Alcotest.(check int) "adjacent pair" 0
    (Graph_algo.module_separation u ~cutoff:5 [| 0; 1 |])

let test_reachable () =
  let c = diamond () in
  let seen = Graph_algo.reachable_from c [| 0 |] in
  Alcotest.(check bool) "everything reachable from input" true
    (Array.for_all Fun.id seen)

let test_transitive_fanin () =
  let c = diamond () in
  let g3 = Option.get (Circuit.node_id_of_name c "g3") in
  (* cone of g3: a, g1, g2, g4 *)
  Alcotest.(check int) "cone size" 4 (Graph_algo.transitive_fanin_count c g3)

let qcheck_module_separation_matches_bruteforce =
  QCheck.Test.make ~name:"module_separation = brute-force pairwise sum"
    ~count:30
    QCheck.(triple (int_range 10 60) (int_range 1 100000) (int_range 1 6))
    (fun (gates, seed, cutoff) ->
      let rng = Iddq_util.Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:4 ~num_outputs:2
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let u = Graph_algo.undirected_of_circuit c in
      (* a random subset as the module *)
      let members =
        Array.of_list
          (List.filter (fun _ -> Iddq_util.Rng.bool rng)
             (List.init gates Fun.id))
      in
      let brute = ref 0 in
      Array.iteri
        (fun i g ->
          Array.iteri
            (fun j h ->
              if j > i then brute := !brute + separation u ~cutoff g h)
            members;
          ignore g)
        members;
      Graph_algo.module_separation u ~cutoff members = !brute)

let tests =
  [
    Alcotest.test_case "depths" `Quick test_depths;
    Alcotest.test_case "gates by depth" `Quick test_gates_by_depth;
    Alcotest.test_case "chain depth" `Quick test_chain_depth;
    Alcotest.test_case "undirected symmetric" `Quick test_undirected_symmetric;
    Alcotest.test_case "separation values" `Quick test_separation_values;
    Alcotest.test_case "separation disconnected" `Quick test_separation_disconnected;
    Alcotest.test_case "module separation brute force" `Quick
      test_module_separation_brute_force;
    Alcotest.test_case "module separation minimal" `Quick
      test_module_separation_clique_minimal;
    Alcotest.test_case "reachability" `Quick test_reachable;
    Alcotest.test_case "transitive fanin" `Quick test_transitive_fanin;
    QCheck_alcotest.to_alcotest qcheck_module_separation_matches_bruteforce;
  ]
