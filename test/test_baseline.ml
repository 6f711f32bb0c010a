module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Standard = Iddq_baseline.Standard
module Random_part = Iddq_baseline.Random_part
module Annealing = Iddq_baseline.Annealing
module Refine = Iddq_baseline.Refine
module Iscas = Iddq_netlist.Iscas
module Graph_algo = Iddq_netlist.Graph_algo
module Library = Iddq_celllib.Library
module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Seeds = Iddq_evolution.Seeds

let make circuit = Charac.make ~library:Library.default circuit

let test_standard_sizes_respected () =
  let ch = make (Iscas.c432_like ()) in
  let sizes = [ 50; 50; 60 ] in
  let p = Standard.partition ch ~module_sizes:sizes in
  Alcotest.(check int) "three modules" 3 (Partition.num_modules p);
  Alcotest.(check (list int)) "exact sizes" sizes
    (List.map (Partition.size p) (Partition.module_ids p));
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent p)

let test_standard_validation () =
  let ch = make (Iscas.c432_like ()) in
  Alcotest.(check bool) "wrong sum rejected" true
    (try ignore (Standard.partition ch ~module_sizes:[ 10; 10 ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive rejected" true
    (try ignore (Standard.partition ch ~module_sizes:[ 0; 160 ]); false
     with Invalid_argument _ -> true)

let test_standard_deterministic () =
  let ch = make (Iscas.c432_like ()) in
  let a = Standard.partition ch ~module_sizes:[ 80; 80 ] in
  let b = Standard.partition ch ~module_sizes:[ 80; 80 ] in
  Alcotest.(check bool) "same assignment" true
    (Partition.assignment a = Partition.assignment b)

let test_standard_uniform () =
  let ch = make (Iscas.c432_like ()) in
  let p = Standard.partition_uniform ch ~num_modules:7 in
  Alcotest.(check int) "seven modules" 7 (Partition.num_modules p);
  List.iter
    (fun m ->
      let s = Partition.size p m in
      Alcotest.(check bool) "near-equal" true (s = 22 || s = 23))
    (Partition.module_ids p)

let test_standard_clusters_connected_gates () =
  (* standard clustering should produce lower intra-module separation
     than a random deal at the same sizes *)
  let ch = make (Iscas.c432_like ()) in
  let std = Standard.partition_uniform ch ~num_modules:4 in
  let rng = Rng.create 3 in
  let rnd = Random_part.partition ~rng ch ~num_modules:4 in
  let total p =
    List.fold_left (fun acc m -> acc + Partition.separation_total p m) 0
      (Partition.module_ids p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "S(std)=%d < S(random)=%d" (total std) (total rnd))
    true
    (total std < total rnd)

(* The standard partitioner as first written: a dense separation array
   per added gate and per tie candidate.  Slow oracle for the
   O(visited) [Standard.partition]; returns the assignment. *)
let standard_oracle ch ~module_sizes =
  let n = Charac.num_gates ch in
  let u = Charac.undirected ch in
  let cutoff = Charac.separation_cutoff ch in
  let sep_from = Test_graph_algo.separations_from u ~cutoff in
  let assignment = Array.make n (-1) in
  let free g = assignment.(g) < 0 in
  let dist_sum = Array.make n 0 in
  let seed_gate () =
    let best = ref (-1) and best_depth = ref max_int in
    for g = 0 to n - 1 do
      if free g && Charac.gate_depth ch g < !best_depth then begin
        best := g;
        best_depth := Charac.gate_depth ch g
      end
    done;
    !best
  in
  let add_to_module m g =
    assignment.(g) <- m;
    let sep = sep_from g in
    for h = 0 to n - 1 do
      if free h then dist_sum.(h) <- dist_sum.(h) + sep.(h)
    done
  in
  let next_gate () =
    let best = ref (-1) and best_sum = ref max_int in
    let ties = ref [] in
    for g = 0 to n - 1 do
      if free g then begin
        if dist_sum.(g) < !best_sum then begin
          best := g;
          best_sum := dist_sum.(g);
          ties := [ g ]
        end
        else if dist_sum.(g) = !best_sum then ties := g :: !ties
      end
    done;
    match !ties with
    | [] -> !best
    | [ g ] -> g
    | candidates ->
      let candidates = List.filteri (fun i _ -> i < 16) (List.rev candidates) in
      let score g =
        let sep = sep_from g in
        let total = ref 0 in
        Array.iteri (fun h s -> if free h && h <> g then total := !total + s) sep;
        !total
      in
      let rec argmax best best_score = function
        | [] -> best
        | g :: rest ->
          let s = score g in
          if s > best_score then argmax g s rest else argmax best best_score rest
      in
      argmax !best min_int candidates
  in
  List.iteri
    (fun m size ->
      Array.fill dist_sum 0 n 0;
      add_to_module m (seed_gate ());
      for _ = 2 to size do
        add_to_module m (next_gate ())
      done)
    module_sizes;
  assignment

(* A random split of [n] gates into 1..[max_k] positive sizes. *)
let size_split_gen n ~max_k =
  let open QCheck.Gen in
  int_range 1 max_k >>= fun k ->
  list_repeat (k - 1) (int_range 1 (n - 1)) >|= fun cuts ->
  let cuts = List.sort_uniq compare cuts in
  let bounds = (0 :: cuts) @ [ n ] in
  let rec sizes = function
    | a :: (b :: _ as rest) -> (b - a) :: sizes rest
    | _ -> []
  in
  sizes bounds

let qcheck_standard_matches_oracle =
  let circuits =
    [ ("c432_like", make (Iscas.c432_like ())); ("c880_like", make (Iscas.c880_like ())) ]
  in
  let gen =
    QCheck.Gen.(
      oneofl circuits >>= fun (name, ch) ->
      size_split_gen (Charac.num_gates ch) ~max_k:8 >|= fun sizes -> (name, ch, sizes))
  in
  let print (name, _, sizes) =
    Printf.sprintf "%s [%s]" name (String.concat "; " (List.map string_of_int sizes))
  in
  (* the assignment is the oracle's, and the S(M) totals accumulated
     while clustering are each module's from scratch *)
  let matches ch ~module_sizes =
    let p = Standard.partition ch ~module_sizes in
    let u = Charac.undirected ch and cutoff = Charac.separation_cutoff ch in
    Partition.assignment p = standard_oracle ch ~module_sizes
    && List.for_all
         (fun m ->
           Partition.separation_total p m
           = Graph_algo.module_separation u ~cutoff (Partition.members p m))
         (Partition.module_ids p)
    && Partition.check_consistent p = Ok ()
  in
  (* one fixed input as well: the C1908 stand-in, 880 gates, so the
     near-free sweep runs 7 multi-source passes *)
  let fixed =
    lazy
      (matches (make (Iscas.c1908_like ()))
         ~module_sizes:[ 220; 180; 160; 120; 100; 60; 40 ])
  in
  QCheck.Test.make ~name:"standard = oracle" ~count:40 (QCheck.make ~print gen)
    (fun (_, ch, module_sizes) -> Lazy.force fixed && matches ch ~module_sizes)

(* Disjoint unions of small DAGs split into modules, many of one
   gate: a module larger than what its balls reach sees the horizon
   empty, so the next gate is the first free id. *)
let qcheck_standard_empty_frontier =
  let gen =
    QCheck.Gen.(
      int_range 1 100000 >>= fun seed ->
      list_size (int_range 2 6) (int_range 1 9) >>= fun components ->
      let ch = make (Test_seeds_mutation.disjoint_dags ~rng:(Rng.create seed) components) in
      size_split_gen (Charac.num_gates ch) ~max_k:(Charac.num_gates ch) >|= fun sizes ->
      (seed, components, ch, sizes))
  in
  let print (seed, components, _, sizes) =
    let ints l = String.concat "; " (List.map string_of_int l) in
    Printf.sprintf "seed %d components [%s] sizes [%s]" seed (ints components) (ints sizes)
  in
  QCheck.Test.make ~name:"standard = oracle, empty horizon" ~count:60
    (QCheck.make ~print gen)
    (fun (_, _, ch, module_sizes) ->
      Partition.assignment (Standard.partition ch ~module_sizes)
      = standard_oracle ch ~module_sizes)

let test_random_partition () =
  let rng = Rng.create 17 in
  let ch = make (Iscas.c432_like ()) in
  let p = Random_part.partition ~rng ch ~num_modules:5 in
  Alcotest.(check int) "five modules" 5 (Partition.num_modules p);
  let total =
    List.fold_left (fun acc m -> acc + Partition.size p m) 0
      (Partition.module_ids p)
  in
  Alcotest.(check int) "covers" 160 total;
  List.iter
    (fun m -> Alcotest.(check int) "balanced" 32 (Partition.size p m))
    (Partition.module_ids p)

let test_annealing_improves () =
  let rng = Rng.create 23 in
  let ch = make (Iscas.c432_like ()) in
  let start = Random_part.partition ~rng ch ~num_modules:4 in
  let start_cost = (Cost.evaluate start).Cost.penalized in
  let params = { Annealing.default_params with Annealing.steps = 2000 } in
  let best, breakdown =
    Annealing.optimize ~metrics:(Metrics.create ()) ~params ~rng start
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f -> %.2f" start_cost breakdown.Cost.penalized)
    true
    (breakdown.Cost.penalized <= start_cost);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent best);
  (* the input partition is untouched *)
  Alcotest.(check (float 1e-9)) "start unchanged" start_cost
    ((Cost.evaluate start).Cost.penalized)

let test_annealing_param_validation () =
  let rng = Rng.create 1 in
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let bad params =
    try
      ignore (Annealing.optimize ~metrics:(Metrics.create ()) ~params ~rng p);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "T0 <= 0" true
    (bad { Annealing.default_params with Annealing.initial_temperature = 0.0 });
  Alcotest.(check bool) "cooling >= 1" true
    (bad { Annealing.default_params with Annealing.cooling = 1.0 });
  Alcotest.(check bool) "steps < 1" true
    (bad { Annealing.default_params with Annealing.steps = 0 })

let test_annealing_no_self_moves () =
  (* regression: a proposal must never have src = target (a no-op that
     would be counted as an accepted move and burn an evaluation) *)
  let rng = Rng.create 41 in
  let ch = make (Iscas.c432_like ()) in
  let start = Random_part.partition ~rng ch ~num_modules:5 in
  let params = { Annealing.default_params with Annealing.steps = 1500 } in
  let proposals = ref 0 in
  let self_moves = ref 0 in
  let on_move ~step:_ ~gate:_ ~src ~target ~accepted:_ =
    incr proposals;
    if src = target then incr self_moves
  in
  let _ =
    Annealing.optimize ~metrics:(Metrics.create ()) ~params ~on_move ~rng start
  in
  Alcotest.(check bool) "some proposals made" true (!proposals > 0);
  Alcotest.(check int) "no src = target in the move trace" 0 !self_moves

let test_refine_monotone () =
  let rng = Rng.create 29 in
  let ch = make (Iscas.c432_like ()) in
  let start = Random_part.partition ~rng ch ~num_modules:4 in
  let start_cost = (Cost.evaluate start).Cost.penalized in
  let refined, breakdown =
    Refine.optimize ~metrics:(Metrics.create ()) ~max_passes:3 start
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f -> %.2f" start_cost breakdown.Cost.penalized)
    true
    (breakdown.Cost.penalized <= start_cost);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent refined)

let test_refine_fixpoint_idempotent () =
  let rng = Rng.create 31 in
  let ch = make (Iscas.c17 ()) in
  let start = Random_part.partition ~rng ch ~num_modules:2 in
  let metrics = Metrics.create () in
  let once, b1 = Refine.optimize ~metrics ~max_passes:50 start in
  let _, b2 = Refine.optimize ~metrics ~max_passes:50 once in
  Alcotest.(check (float 1e-9)) "already at a local optimum"
    b1.Cost.penalized b2.Cost.penalized

let tests =
  [
    Alcotest.test_case "standard sizes" `Quick test_standard_sizes_respected;
    Alcotest.test_case "standard validation" `Quick test_standard_validation;
    Alcotest.test_case "standard deterministic" `Quick test_standard_deterministic;
    Alcotest.test_case "standard uniform" `Quick test_standard_uniform;
    QCheck_alcotest.to_alcotest qcheck_standard_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_standard_empty_frontier;
    Alcotest.test_case "standard clusters connected" `Quick
      test_standard_clusters_connected_gates;
    Alcotest.test_case "random partition" `Quick test_random_partition;
    Alcotest.test_case "annealing improves" `Slow test_annealing_improves;
    Alcotest.test_case "annealing validation" `Quick test_annealing_param_validation;
    Alcotest.test_case "annealing no self moves" `Slow test_annealing_no_self_moves;
    Alcotest.test_case "refine monotone" `Slow test_refine_monotone;
    Alcotest.test_case "refine idempotent" `Quick test_refine_fixpoint_idempotent;
  ]
