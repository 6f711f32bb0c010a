module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Standard = Iddq_baseline.Standard
module Random_part = Iddq_baseline.Random_part
module Annealing = Iddq_baseline.Annealing
module Refine = Iddq_baseline.Refine
module Iscas = Iddq_netlist.Iscas
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
  let best, breakdown = Annealing.optimize ~params ~rng start in
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
    try ignore (Annealing.optimize ~params ~rng p); false
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
  let _ = Annealing.optimize ~params ~on_move ~rng start in
  Alcotest.(check bool) "some proposals made" true (!proposals > 0);
  Alcotest.(check int) "no src = target in the move trace" 0 !self_moves

let test_annealing_delta_equals_full_eval () =
  (* the incremental evaluator reproduces Cost.evaluate exactly, so
     both modes follow the same trajectory from the same rng seed; the
     work each mode accounts (Metrics.equivalent_evals, in units of
     one full evaluation) is where they differ *)
  let run ~full_eval ~params ~seed start =
    let before = Metrics.snapshot Metrics.global in
    let _, best =
      Annealing.optimize ~params ~full_eval ~rng:(Rng.create seed) start
    in
    let work =
      Metrics.equivalent_evals
        (Metrics.diff (Metrics.snapshot Metrics.global) before)
    in
    (best.Cost.penalized, work)
  in
  let check name ~start ~steps ~seed ~min_speedup =
    let params = { Annealing.default_params with Annealing.steps } in
    let full, full_work = run ~full_eval:true ~params ~seed start in
    let delta, delta_work = run ~full_eval:false ~params ~seed start in
    Alcotest.(check (float 0.0)) (name ^ ": identical final cost") full delta;
    Option.iter
      (fun min_speedup ->
        Alcotest.(check bool)
          (Printf.sprintf
             "%s: evaluate-equivalents full %.1f, delta %.1f (>= %.0fx fewer)"
             name full_work delta_work min_speedup)
          true
          (full_work >= min_speedup *. delta_work))
      min_speedup
  in
  let ch = make (Iscas.c432_like ()) in
  check "C432"
    ~start:(Random_part.partition ~rng:(Rng.create 43) ch ~num_modules:5)
    ~steps:1000 ~seed:5 ~min_speedup:None;
  (* the C7552 stand-in cut into 8-gate chain modules: a delta step
     re-evaluates two small modules of a large circuit *)
  let ch = make (Iscas.c7552_like ()) in
  check "C7552"
    ~start:(Seeds.chain_partition ~rng:(Rng.create 42) ~module_size:8 ch)
    ~steps:2000 ~seed:7 ~min_speedup:(Some 5.0)

let test_refine_monotone () =
  let rng = Rng.create 29 in
  let ch = make (Iscas.c432_like ()) in
  let start = Random_part.partition ~rng ch ~num_modules:4 in
  let start_cost = (Cost.evaluate start).Cost.penalized in
  let refined, breakdown = Refine.optimize ~max_passes:3 start in
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
  let once, b1 = Refine.optimize ~max_passes:50 start in
  let _, b2 = Refine.optimize ~max_passes:50 once in
  Alcotest.(check (float 1e-9)) "already at a local optimum"
    b1.Cost.penalized b2.Cost.penalized

let tests =
  [
    Alcotest.test_case "standard sizes" `Quick test_standard_sizes_respected;
    Alcotest.test_case "standard validation" `Quick test_standard_validation;
    Alcotest.test_case "standard deterministic" `Quick test_standard_deterministic;
    Alcotest.test_case "standard uniform" `Quick test_standard_uniform;
    Alcotest.test_case "standard clusters connected" `Quick
      test_standard_clusters_connected_gates;
    Alcotest.test_case "random partition" `Quick test_random_partition;
    Alcotest.test_case "annealing improves" `Slow test_annealing_improves;
    Alcotest.test_case "annealing validation" `Quick test_annealing_param_validation;
    Alcotest.test_case "annealing no self moves" `Slow test_annealing_no_self_moves;
    Alcotest.test_case "annealing delta = full eval" `Slow
      test_annealing_delta_equals_full_eval;
    Alcotest.test_case "refine monotone" `Slow test_refine_monotone;
    Alcotest.test_case "refine idempotent" `Quick test_refine_fixpoint_idempotent;
  ]
