module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Sensor = Iddq_bic.Sensor
module Test_time = Iddq_bic.Test_time

type weights = {
  w_area : float;
  w_delay : float;
  w_separation : float;
  w_test_time : float;
  w_module_count : float;
}

let paper_weights =
  {
    w_area = 9.0;
    w_delay = 1.0e5;
    w_separation = 1.0;
    w_test_time = 1.0;
    w_module_count = 10.0;
  }

let equal_weights =
  {
    w_area = 1.0;
    w_delay = 1.0;
    w_separation = 1.0;
    w_test_time = 1.0;
    w_module_count = 1.0;
  }

type breakdown = {
  c1_area : float;
  c2_delay : float;
  c3_separation : float;
  c4_test_time : float;
  c5_module_count : float;
  total : float;
  feasible : bool;
  penalized : float;
  sensor_area : float;
  nominal_delay : float;
  bic_delay : float;
  test_time_per_vector : float;
  min_discriminability : float;
}

let infeasibility_penalty = 1.0e7

(* log clipped away from -inf for degenerate (empty/zero) values *)
let safe_log x = if x <= 0.0 then 0.0 else log x

let relative_delay ~nominal_delay ~bic_delay =
  if nominal_delay > 0.0 then (bic_delay -. nominal_delay) /. nominal_delay
  else 0.0

(* Assembly of the breakdown from the expensive pieces (the sensor
   list and the two delays).  Shared — with identical operation order —
   by the full [evaluate] below and the incremental [Cost_eval], so a
   delta evaluation that reproduces the same components reproduces the
   full evaluation's floats bit for bit. *)
let of_components ?(weights = paper_weights) ~sensors ~bic_delay ~nominal_delay
    p =
  let tech = Charac.technology (Partition.charac p) in
  let sensor_area =
    List.fold_left (fun acc (_, s) -> acc +. s.Sensor.area) 0.0 sensors
  in
  let c1_area = safe_log sensor_area in
  let c2_delay = relative_delay ~nominal_delay ~bic_delay in
  let separation_sum =
    List.fold_left
      (fun acc m -> acc +. float_of_int (Partition.separation_total p m))
      0.0 (Partition.module_ids p)
  in
  let c3_separation = safe_log separation_sum in
  let sensor_list = List.map snd sensors in
  let summed = Test_time.summed_module_times tech ~d_bic:bic_delay sensor_list in
  let c4_test_time = safe_log (summed /. 1.0e-9) in
  let c5_module_count = float_of_int (Partition.num_modules p) in
  let total =
    (weights.w_area *. c1_area)
    +. (weights.w_delay *. c2_delay)
    +. (weights.w_separation *. c3_separation)
    +. (weights.w_test_time *. c4_test_time)
    +. (weights.w_module_count *. c5_module_count)
  in
  let deficit = Constraints.deficit p in
  let feasible = deficit = 0.0 in
  {
    c1_area;
    c2_delay;
    c3_separation;
    c4_test_time;
    c5_module_count;
    total;
    feasible;
    penalized = total +. (infeasibility_penalty *. deficit);
    sensor_area;
    nominal_delay;
    bic_delay;
    test_time_per_vector = Test_time.per_vector tech ~d_bic:bic_delay sensor_list;
    min_discriminability = Partition.min_discriminability p;
  }

let evaluate ?weights ?metrics p =
  let t0 = Iddq_util.Clock.now_ns () in
  let ch = Partition.charac p in
  let sensors = Partition.sensors p in
  let nominal_delay = Timing.nominal_delay ch in
  (* per-module sensor lookup tables for the degradation model *)
  let max_id =
    List.fold_left (fun acc (m, _) -> Stdlib.max acc m) 0 sensors
  in
  let rs_tab = Array.make (max_id + 1) Sensor.max_rs in
  let cs_tab = Array.make (max_id + 1) 0.0 in
  List.iter
    (fun (m, s) ->
      rs_tab.(m) <- s.Sensor.rs;
      cs_tab.(m) <- s.Sensor.cs)
    sensors;
  let module_of_gate = Partition.assignment p in
  let bic_delay =
    Timing.bic_delay ch ~module_of_gate
      ~rs_of_module:(fun m -> rs_tab.(m))
      ~cs_of_module:(fun m -> cs_tab.(m))
      ~module_current:(fun m slot -> Partition.transient_at p m slot)
  in
  let b = of_components ?weights ~sensors ~bic_delay ~nominal_delay p in
  Option.iter
    (fun m ->
      Iddq_util.Metrics.record_full m ~gates:(Charac.num_gates ch)
        ~seconds:(Iddq_util.Clock.seconds_since t0))
    metrics;
  b

let pp_breakdown fmt b =
  Format.fprintf fmt
    "c1=%.4f c2=%.3e c3=%.4f c4=%.4f c5=%.0f total=%.4f%s A=%.4e D=%.3es \
     Dbic=%.3es dmin=%.2f"
    b.c1_area b.c2_delay b.c3_separation b.c4_test_time b.c5_module_count
    b.total
    (if b.feasible then "" else " INFEASIBLE")
    b.sensor_area b.nominal_delay b.bic_delay b.min_discriminability
