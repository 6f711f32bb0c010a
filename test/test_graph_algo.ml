module Builder = Iddq_netlist.Builder
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Graph_algo = Iddq_netlist.Graph_algo
module Generator = Iddq_netlist.Generator
module Iscas = Iddq_netlist.Iscas

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

(* Levels live on the circuit; these pin them on hand-checked shapes. *)
let test_depths () =
  let c = diamond () in
  let level name = Circuit.level c (Option.get (Circuit.node_id_of_name c name)) in
  Alcotest.(check int) "input level" 0 (level "a");
  Alcotest.(check int) "g1 depth" 1 (level "g1");
  Alcotest.(check int) "g2 depth" 2 (level "g2");
  Alcotest.(check int) "g4 depth" 1 (level "g4");
  Alcotest.(check int) "g3 depth = longest" 3 (level "g3");
  Alcotest.(check int) "circuit depth" 3 (Circuit.depth c)

let test_gates_by_depth () =
  let c = diamond () in
  let offsets = Circuit.Csr.level_offsets c in
  let level l =
    Array.sub (Circuit.Csr.level_order c) offsets.(l - 1)
      (offsets.(l) - offsets.(l - 1))
    |> Array.map (Circuit.node_name c)
  in
  Alcotest.(check int) "3 levels" 3 (Array.length offsets - 1);
  Alcotest.(check (array string)) "level 1 holds g1 and g4, by id"
    [| "g1"; "g4" |] (level 1);
  Alcotest.(check (array string)) "level 2 holds g2" [| "g2" |] (level 2);
  Alcotest.(check (array string)) "level 3 holds g3" [| "g3" |] (level 3)

let test_chain_depth () =
  let c = Generator.chain ~length:20 () in
  Alcotest.(check int) "depth 20" 20 (Circuit.depth c)

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
    (separation u ~cutoff:7 0 1)

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

(* Every (source index, gate, distance) triple the multi-source BFS
   reports, the sources split into passes of [multi_width] as a
   caller with more sources must split them; one workspace serves
   every pass. *)
let multi_triples u b ~cutoff sources =
  let out = ref [] in
  let pos = ref 0 in
  let k = Array.length sources in
  while !pos < k do
    let len = Stdlib.min Graph_algo.multi_width (k - !pos) in
    let base = !pos in
    Graph_algo.multi_bfs_from u b ~cutoff sources ~pos:base ~len
      (fun g d lo hi ->
        for i = 0 to len - 1 do
          let word, bit =
            if i < Sys.int_size then (lo, i) else (hi, i - Sys.int_size)
          in
          if word land (1 lsl bit) <> 0 then out := (base + i, g, d) :: !out
        done);
    pos := !pos + len
  done;
  List.sort compare !out

(* The same triples from one single-source [bfs_from] per source:
   the gates within the horizon are the source and those below
   separation [cutoff]. *)
let single_triples u ~cutoff sources =
  let out = ref [] in
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun g sep ->
          if g = s then out := (i, g, 0) :: !out
          else if sep < cutoff then out := (i, g, sep + 1) :: !out)
        (separations_from u ~cutoff s))
    sources;
  List.sort compare !out

(* The same triples from one level-synchronous [bfs_levels] per
   source, on one workspace, which reports all but the source. *)
let level_triples u ~cutoff sources =
  let b = Graph_algo.make_bfs u in
  let out = ref [] in
  Array.iteri
    (fun i s ->
      out := (i, s, 0) :: !out;
      Graph_algo.bfs_levels u b ~cutoff s (fun queue first stop d ->
          for j = first to stop - 1 do
            out := (i, queue.(j), d) :: !out
          done))
    sources;
  List.sort compare !out

(* Sources with duplicates and adjacent pairs mixed in: a draw repeats
   the previous source, takes one of its neighbours, or is fresh. *)
let draw_sources rng u n count =
  let sources = Array.make count 0 in
  for i = 0 to count - 1 do
    sources.(i) <-
      (if i = 0 then Iddq_util.Rng.int rng n
       else
         let prev = sources.(i - 1) in
         match Iddq_util.Rng.int rng 4 with
         | 0 -> prev
         | 1 -> (
           match Graph_algo.neighbours u prev with
           | [||] -> prev
           | nb -> Iddq_util.Rng.choose rng nb)
         | _ -> Iddq_util.Rng.int rng n)
  done;
  sources

let qcheck_multi_bfs_matches_single =
  QCheck.Test.make
    ~name:"multi-source BFS = one bfs_from per source" ~count:30
    QCheck.(
      triple
        (pair (int_range 10 200) (int_range 1 100000))
        (oneofl [ 1; 62; 63; 64; 125; 126; 130 ])
        (int_range 1 6))
    (fun ((gates, seed), count, cutoff) ->
      let rng = Iddq_util.Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:4 ~num_outputs:2
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let u = Graph_algo.undirected_of_circuit c in
      let b = Graph_algo.make_multi_bfs u in
      let n = Graph_algo.num_gates u in
      let first = draw_sources rng u n count in
      let second = draw_sources rng u n count in
      (* the second call on the same workspace sees no stale bits;
         [bfs_levels] reports the same triples as well *)
      let single = single_triples u ~cutoff first in
      multi_triples u b ~cutoff first = single
      && level_triples u ~cutoff first = single
      && multi_triples u b ~cutoff second = single_triples u ~cutoff second)

let test_multi_bfs_bounds () =
  let c = Generator.chain ~length:5 () in
  let u = Graph_algo.undirected_of_circuit c in
  let b = Graph_algo.make_multi_bfs u in
  let sources = Array.make (Graph_algo.multi_width + 1) 0 in
  let rejected ~pos ~len =
    try
      Graph_algo.multi_bfs_from u b ~cutoff:3 sources ~pos ~len
        (fun _ _ _ _ -> ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check int) "two words of sources" (2 * Sys.int_size)
    Graph_algo.multi_width;
  Alcotest.(check bool) "wider than two words" true
    (rejected ~pos:0 ~len:(Graph_algo.multi_width + 1));
  Alcotest.(check bool) "127 sources" true (rejected ~pos:0 ~len:127);
  Alcotest.(check bool) "past the end" true (rejected ~pos:2 ~len:Graph_algo.multi_width);
  Alcotest.(check bool) "negative position" true (rejected ~pos:(-1) ~len:1);
  Alcotest.(check bool) "a full pass fits" false
    (rejected ~pos:1 ~len:Graph_algo.multi_width);
  let other = Graph_algo.undirected_of_circuit (Generator.chain ~length:7 ()) in
  Alcotest.(check bool) "workspace of another graph" true
    (try
       Graph_algo.multi_bfs_from other b ~cutoff:3 [| 0 |] ~pos:0 ~len:1
         (fun _ _ _ _ -> ());
       false
     with Invalid_argument _ -> true)

let test_popcount () =
  let naive x =
    let c = ref 0 in
    for i = 0 to Sys.int_size - 1 do
      if x land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  List.iter
    (fun x ->
      Alcotest.(check int) (Printf.sprintf "popcount %d" x) (naive x)
        (Graph_algo.popcount x))
    [ 0; 1; 2; 3; 255; max_int; min_int; -1; min_int + 1; 0x5555_5555;
      1 lsl 61; (1 lsl 62) lor 1; 0x0f0f_0f0f_0f0f_0f0f ]

(* The undirected graph by definition: per gate, the sorted unique
   union of its gate fanins and gate fanouts, itself excluded. *)
let undirected_matches_oracle c =
  let ni = Circuit.num_inputs c in
  let u = Graph_algo.undirected_of_circuit c in
  Graph_algo.num_gates u = Circuit.num_gates c
  && List.for_all
       (fun g ->
         let id = Circuit.node_of_gate c g in
         let ends = Array.append (Circuit.fanins c id) (Circuit.fanouts c id) in
         let expected =
           Array.to_list ends
           |> List.filter (fun other -> other >= ni && other <> id)
           |> List.map (fun other -> other - ni)
           |> List.sort_uniq compare
         in
         Array.to_list (Graph_algo.neighbours u g) = expected)
       (List.init (Circuit.num_gates c) Fun.id)

let qcheck_undirected_matches_oracle =
  QCheck.Test.make ~name:"undirected_of_circuit = fanin/fanout union oracle"
    ~count:40
    QCheck.(triple (int_range 10 300) (int_range 1 100000) (int_range 1 4))
    (fun (gates, seed, fanin) ->
      let rng = Iddq_util.Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:4 ~num_outputs:2
          ~num_gates:gates ~depth:(1 + (gates / 8)) ~max_fanin:(fanin + 1) ()
      in
      undirected_matches_oracle c)

let test_undirected_oracle_fixed () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " = oracle") true
        (undirected_matches_oracle (Option.get (Iscas.by_name name))))
    Iscas.names;
  (* g2 reads g1 twice, so g1's fanout segment holds g2 twice in a row *)
  let b = Builder.create ~name:"twice" () in
  Builder.add_input b "a";
  Builder.add_input b "b";
  Builder.add_gate b "g1" Gate.Nand [ "a"; "b" ];
  Builder.add_gate b "g2" Gate.And [ "g1"; "g1" ];
  Builder.add_gate b "g3" Gate.Or [ "g1"; "g2"; "g1" ];
  Builder.add_output b "g3";
  let c = Builder.freeze_exn b in
  let g1 = Option.get (Circuit.node_id_of_name c "g1") in
  Alcotest.(check int) "g1 fanout repeats" 4 (Circuit.fanout_count c g1);
  Alcotest.(check bool) "repeated reads = oracle" true (undirected_matches_oracle c);
  Alcotest.(check (array int)) "g1 neighbours" [| 1; 2 |]
    (Graph_algo.neighbours (Graph_algo.undirected_of_circuit c) 0)

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
    QCheck_alcotest.to_alcotest qcheck_module_separation_matches_bruteforce;
    QCheck_alcotest.to_alcotest qcheck_multi_bfs_matches_single;
    Alcotest.test_case "multi-source BFS bounds" `Quick test_multi_bfs_bounds;
    Alcotest.test_case "popcount" `Quick test_popcount;
    QCheck_alcotest.to_alcotest qcheck_undirected_matches_oracle;
    Alcotest.test_case "undirected = oracle: stand-ins, repeated reads" `Quick
      test_undirected_oracle_fixed;
  ]
