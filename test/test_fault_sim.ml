(* Differential tests pinning the 64-way packed IDDQ fault-simulation
   engine (Fault_sim) to the scalar vector-at-a-time oracle, on random
   circuits, partitions and fault populations. *)

module Fault_sim = Iddq_defects.Fault_sim
module Coverage = Iddq_defects.Coverage
module Fault = Iddq_defects.Fault
module Stuck_at = Iddq_defects.Stuck_at
module Iddq_sim = Iddq_defects.Iddq_sim
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Circuit = Iddq_netlist.Circuit
module Generator = Iddq_netlist.Generator
module Iscas = Iddq_netlist.Iscas
module Library = Iddq_celllib.Library
module Pattern_gen = Iddq_patterns.Pattern_gen
module Rng = Iddq_util.Rng
module Bitvec = Iddq_util.Bitvec
module Metrics = Iddq_util.Metrics

(* A random circuit, partition, vector set and fault population; the
   vector count ranges across partial and multiple 64-blocks. *)
let random_case seed =
  let rng = Rng.create seed in
  let gates = 40 + Rng.int rng 120 in
  let c =
    Generator.layered_dag ~rng ~name:"fsim" ~num_inputs:8 ~num_outputs:4
      ~num_gates:gates ~depth:(3 + Rng.int rng 8) ()
  in
  let ch = Charac.make ~library:Library.default c in
  let n = Charac.num_gates ch in
  let k = 2 + Rng.int rng 4 in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod k)) in
  let faults =
    Fault.random_population ~rng c ~count:(30 + Rng.int rng 60)
      ~defect_current:2e-6
  in
  let vectors = Pattern_gen.random ~rng c ~count:(1 + Rng.int rng 150) in
  (c, p, vectors, faults)

let test_matrix_matches_scalar () =
  for seed = 1 to 12 do
    let c, p, vectors, faults = random_case seed in
    let packed = Fault_sim.detection_matrix p ~vectors ~faults in
    let scalar =
      Fault_sim.detection_matrix_scalar_with c
        ~measurable:(Fault_sim.measurable p) ~vectors ~faults
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: packed = scalar" seed)
      true
      (Fault_sim.equal packed scalar)
  done

let test_matrix_domains_invariant () =
  for seed = 1 to 6 do
    let _, p, vectors, faults = random_case seed in
    let one = Fault_sim.detection_matrix ~domains:1 p ~vectors ~faults in
    let three = Fault_sim.detection_matrix ~domains:3 p ~vectors ~faults in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: domains=3 = domains=1" seed)
      true (Fault_sim.equal one three)
  done

let test_first_detections_match_matrix () =
  for seed = 1 to 8 do
    let _, p, vectors, faults = random_case seed in
    let m = Fault_sim.detection_matrix p ~vectors ~faults in
    let from_matrix = Coverage.first_detection m in
    let dropped = Fault_sim.first_detections ~domains:2 p ~vectors ~faults in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d: dropping = matrix scan" seed)
      from_matrix dropped
  done

(* The original boxed-bool greedy loop, reproduced as the compaction
   oracle: the popcount rewrite must select the same vectors. *)
let naive_compact m =
  let nf = Coverage.num_faults m in
  let nv = Coverage.num_vectors m in
  let detects f v = Coverage.detects m ~fault:f ~vector:v in
  let covered = Array.make nf false in
  let target = Coverage.num_detectable m in
  let kept = ref [] in
  let covered_count = ref 0 in
  while !covered_count < target do
    let best = ref (-1) and best_gain = ref 0 in
    for v = 0 to nv - 1 do
      let gain = ref 0 in
      for f = 0 to nf - 1 do
        if (not covered.(f)) && detects f v then incr gain
      done;
      if !gain > !best_gain then begin
        best_gain := !gain;
        best := v
      end
    done;
    assert (!best >= 0);
    kept := !best :: !kept;
    for f = 0 to nf - 1 do
      if (not covered.(f)) && detects f !best then begin
        covered.(f) <- true;
        incr covered_count
      end
    done
  done;
  let arr = Array.of_list !kept in
  Array.sort compare arr;
  arr

let test_compact_matches_naive_greedy () =
  for seed = 1 to 8 do
    let _, p, vectors, faults = random_case seed in
    let m = Fault_sim.detection_matrix p ~vectors ~faults in
    let packed = Coverage.compact m in
    let naive = naive_compact m in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: same selection size" seed)
      (Array.length naive) (Array.length packed);
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d: same selection" seed)
      naive packed;
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d: coverage preserved" seed)
      (Coverage.coverage_of_selection m
         (Array.init (Coverage.num_vectors m) Fun.id))
      (Coverage.coverage_of_selection m packed)
  done

let test_curve_matches_first_detections () =
  let _, p, vectors, faults = random_case 5 in
  let m = Fault_sim.detection_matrix p ~vectors ~faults in
  let nf = Coverage.num_faults m in
  let first = Coverage.first_detection m in
  let curve = Coverage.coverage_curve m in
  Alcotest.(check int) "curve length" (Array.length vectors) (Array.length curve);
  Array.iteri
    (fun v cov ->
      let hit = Array.fold_left (fun a f -> if f >= 0 && f <= v then a + 1 else a) 0 first in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "curve at %d" v)
        (float_of_int hit /. float_of_int nf)
        cov)
    curve

let test_run_partitioned_domains_invariant () =
  let _, p, vectors, faults = random_case 7 in
  let base = Iddq_sim.run_partitioned p ~vectors ~faults in
  let pooled = Iddq_sim.run_partitioned ~domains:2 p ~vectors ~faults in
  Alcotest.(check (float 0.0)) "same coverage" base.Iddq_sim.coverage
    pooled.Iddq_sim.coverage;
  List.iter2
    (fun (a : Iddq_sim.detection) (b : Iddq_sim.detection) ->
      Alcotest.(check (option int)) "same detecting vector"
        a.Iddq_sim.detecting_vector b.Iddq_sim.detecting_vector;
      Alcotest.(check (option int)) "same module" a.Iddq_sim.module_id
        b.Iddq_sim.module_id)
    base.Iddq_sim.detections pooled.Iddq_sim.detections

let test_stuck_at_domains_invariant () =
  let c = Iscas.c432_like () in
  let rng = Rng.create 11 in
  let vectors = Pattern_gen.random ~rng c ~count:150 in
  let faults =
    List.filteri (fun i _ -> i mod 7 = 0) (Stuck_at.collapsed_fault_list c)
  in
  let base = Stuck_at.fault_simulate c ~vectors ~faults in
  let pooled = Stuck_at.fault_simulate ~domains:3 c ~vectors ~faults in
  Alcotest.(check int) "same detected" base.Stuck_at.detected
    pooled.Stuck_at.detected;
  Alcotest.(check (array int)) "same first vectors" base.Stuck_at.first_vector
    pooled.Stuck_at.first_vector

let test_metrics_counters () =
  let _, p, vectors, faults = random_case 3 in
  let metrics = Metrics.create () in
  let _ = Fault_sim.detection_matrix ~metrics p ~vectors ~faults in
  let s = Metrics.snapshot metrics in
  let expected_blocks = (Array.length vectors + 63) / 64 in
  Alcotest.(check int) "good-machine blocks" expected_blocks
    (Metrics.get s Metrics.sim_blocks);
  Alcotest.(check bool) "fault-block passes recorded" true
    (Metrics.get s Metrics.sim_fault_blocks > 0);
  Alcotest.(check int) "full matrix never drops" 0
    (Metrics.get s Metrics.sim_faults_dropped);
  let metrics = Metrics.create () in
  let first = Fault_sim.first_detections ~metrics p ~vectors ~faults in
  let s = Metrics.snapshot metrics in
  let detected =
    Array.fold_left (fun a v -> if v >= 0 then a + 1 else a) 0 first
  in
  Alcotest.(check int) "dropped = detected" detected
    (Metrics.get s Metrics.sim_faults_dropped)

let test_empty_cases () =
  let _, p, vectors, _ = random_case 2 in
  (* no faults *)
  let m = Fault_sim.detection_matrix p ~vectors ~faults:[] in
  Alcotest.(check int) "no rows" 0 (Coverage.num_faults m);
  Alcotest.(check int) "compact empty" 0 (Array.length (Coverage.compact m));
  (* no vectors *)
  let c, p, _, faults = random_case 4 in
  ignore c;
  let m = Fault_sim.detection_matrix p ~vectors:[||] ~faults in
  Alcotest.(check int) "no detectable" 0 (Coverage.num_detectable m);
  let first = Fault_sim.first_detections p ~vectors:[||] ~faults in
  Array.iter (fun v -> Alcotest.(check int) "all -1" (-1) v) first

(* Bitvec unit checks: the word primitives the engine leans on. *)
let test_bitvec_primitives () =
  Alcotest.(check int) "popcount 0" 0 (Bitvec.popcount64 0L);
  Alcotest.(check int) "popcount -1" 64 (Bitvec.popcount64 Int64.minus_one);
  Alcotest.(check int) "popcount pattern" 32
    (Bitvec.popcount64 0x5555555555555555L);
  Alcotest.(check int) "ctz 0" 64 (Bitvec.ctz64 0L);
  Alcotest.(check int) "ctz 1" 0 (Bitvec.ctz64 1L);
  Alcotest.(check int) "ctz high bit" 63 (Bitvec.ctz64 Int64.min_int);
  let v = Bitvec.create 130 in
  Alcotest.(check int) "empty count" 0 (Bitvec.count v);
  Bitvec.set v 0;
  Bitvec.set v 64;
  Bitvec.set v 129;
  Alcotest.(check int) "count" 3 (Bitvec.count v);
  Alcotest.(check int) "first" 0 (Bitvec.first_set v);
  Alcotest.(check bool) "get" true (Bitvec.get v 64);
  Alcotest.(check bool) "get unset" false (Bitvec.get v 128);
  (* set_word clears bits beyond the length *)
  let w = Bitvec.create 70 in
  Bitvec.set_word w 1 Int64.minus_one;
  Alcotest.(check int) "tail clipped" 6 (Bitvec.count w);
  let collected = ref [] in
  Bitvec.iter_set v (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter ascending" [ 0; 64; 129 ]
    (List.rev !collected);
  let u = Bitvec.copy v in
  Bitvec.diff_inplace u v;
  Alcotest.(check bool) "diff empties" true (Bitvec.is_empty u);
  Alcotest.(check int) "inter" 3 (Bitvec.inter_count v v);
  Alcotest.(check bool) "intersects self" true (Bitvec.intersects v v);
  Alcotest.(check bool) "no intersect" false (Bitvec.intersects u v)

let tests =
  [
    Alcotest.test_case "bitvec primitives" `Quick test_bitvec_primitives;
    Alcotest.test_case "matrix = scalar oracle" `Quick
      test_matrix_matches_scalar;
    Alcotest.test_case "matrix domain-pool invariant" `Quick
      test_matrix_domains_invariant;
    Alcotest.test_case "first detections = matrix" `Quick
      test_first_detections_match_matrix;
    Alcotest.test_case "compact = naive greedy" `Quick
      test_compact_matches_naive_greedy;
    Alcotest.test_case "curve = first detections" `Quick
      test_curve_matches_first_detections;
    Alcotest.test_case "run_partitioned domain invariant" `Quick
      test_run_partitioned_domains_invariant;
    Alcotest.test_case "stuck-at domain invariant" `Quick
      test_stuck_at_domains_invariant;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "empty cases" `Quick test_empty_cases;
  ]
