module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Technology = Iddq_celllib.Technology
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Sensor = Iddq_bic.Sensor
module Test_time = Iddq_bic.Test_time

type detection = {
  injected : Fault.injected;
  detected : bool;
  detecting_vector : int option;
  module_id : int option;
}

type result = {
  detections : detection list;
  coverage : float;
  vectors_applied : int;
  test_time : float;
}

let coverage_of detections =
  match detections with
  | [] -> 1.0
  | l ->
    let hit = List.length (List.filter (fun d -> d.detected) l) in
    float_of_int hit /. float_of_int (List.length l)

let run_partitioned ?metrics p ~vectors ~faults =
  let ch = Partition.charac p in
  let c = Charac.circuit ch in
  let tech = Charac.technology ch in
  let first =
    Coverage.first_detection
      (Fault_sim.detection_matrix ?metrics p ~vectors ~faults)
  in
  let detections =
    List.mapi
      (fun f (inj : Fault.injected) ->
        let hit = if first.(f) >= 0 then Some first.(f) else None in
        let m = Partition.module_of_gate p (Fault.location c inj.Fault.fault) in
        {
          injected = inj;
          detected = hit <> None;
          detecting_vector = hit;
          module_id = (if hit <> None then Some m else None);
        })
      faults
  in
  let breakdown = Cost.evaluate ?metrics p in
  let sensors = List.map snd (Partition.sensors p) in
  let test_time =
    Test_time.total tech ~d_bic:breakdown.Cost.bic_delay
      ~vectors:(Array.length vectors) sensors
  in
  {
    detections;
    coverage = coverage_of detections;
    vectors_applied = Array.length vectors;
    test_time;
  }

let run_single_sensor ?metrics ch ~vectors ~faults =
  let c = Charac.circuit ch in
  let tech = Charac.technology ch in
  let all_gates = Array.init (Charac.num_gates ch) Fun.id in
  let total_leak = Iddq_analysis.Switching.leakage ch all_gates in
  let threshold =
    Stdlib.max tech.Technology.iddq_threshold (2.0 *. total_leak)
  in
  let measurable (inj : Fault.injected) =
    total_leak +. inj.Fault.defect_current >= threshold
  in
  let first =
    Coverage.first_detection
      (Fault_sim.detection_matrix_with ?metrics c ~measurable ~vectors ~faults)
  in
  let detections =
    List.mapi
      (fun f (inj : Fault.injected) ->
        let hit = if first.(f) >= 0 then Some first.(f) else None in
        { injected = inj; detected = hit <> None; detecting_vector = hit; module_id = None })
      faults
  in
  (* one sensor for the whole CUT: sized for the full-chip transient *)
  let sensor = Sensor.for_module ch all_gates in
  let d = Timing.nominal_delay ch in
  let test_time =
    Test_time.total tech ~d_bic:d ~vectors:(Array.length vectors) [ sensor ]
  in
  {
    detections;
    coverage = coverage_of detections;
    vectors_applied = Array.length vectors;
    test_time;
  }
