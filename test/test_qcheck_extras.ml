(* Additional cross-module properties. *)

module Partition = Iddq_core.Partition
module Partition_io = Iddq_core.Partition_io
module Charac = Iddq_analysis.Charac
module Standard = Iddq_baseline.Standard
module Sensor = Iddq_bic.Sensor
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Technology = Iddq_celllib.Technology
module Rng = Iddq_util.Rng

let make_circuit ~gates ~seed =
  let rng = Rng.create seed in
  Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
    ~num_gates:gates ~depth:(1 + (gates / 8)) ()

let qcheck_partition_io_roundtrip =
  QCheck.Test.make ~name:"partition save/load preserves grouping and cost"
    ~count:20
    QCheck.(triple (int_range 15 60) (int_range 2 5) (int_range 1 100000))
    (fun (gates, k, seed) ->
      let circuit = make_circuit ~gates ~seed in
      let ch = Charac.make ~library:Library.default circuit in
      let p = Partition.create ch ~assignment:(Array.init gates (fun g -> g mod k)) in
      match Partition_io.of_string ch (Partition_io.to_string p) with
      | Error _ -> false
      | Ok q ->
        let canon r =
          List.map (fun m -> Array.to_list (Partition.members r m)) (Partition.module_ids r)
          |> List.sort compare
        in
        canon p = canon q)

let qcheck_standard_sizes_exact =
  QCheck.Test.make ~name:"standard partitioning honours arbitrary size splits"
    ~count:15
    QCheck.(triple (int_range 20 60) (int_range 2 5) (int_range 1 100000))
    (fun (gates, k, seed) ->
      let circuit = make_circuit ~gates ~seed in
      let ch = Charac.make ~library:Library.default circuit in
      (* a deterministic uneven split summing to [gates] *)
      let base = gates / k in
      let sizes =
        List.init k (fun i ->
            if i = 0 then gates - (base * (k - 1)) else base)
      in
      let p = Standard.partition ch ~module_sizes:sizes in
      List.map (Partition.size p) (Partition.module_ids p) = sizes)

let qcheck_sensor_area_antitone_in_rs =
  QCheck.Test.make ~name:"sensor area decreases with rail budget" ~count:100
    QCheck.(pair (float_range 1e-4 0.1) (pair (float_range 0.05 0.3) (float_range 0.05 0.3)))
    (fun (imax, (r1, r2)) ->
      let lo = Stdlib.min r1 r2 and hi = Stdlib.max r1 r2 in
      let area budget =
        (Sensor.size
           ~technology:{ Technology.default with Technology.rail_budget = budget }
           ~peak_current:imax ~module_rail_capacitance:1e-12)
          .Sensor.area
      in
      (* a looser rail budget allows a smaller (cheaper) switch *)
      area hi <= area lo +. 1e-9)

let qcheck_chain_seed_sizes_bounded =
  QCheck.Test.make ~name:"chain seeds never exceed the size cap" ~count:15
    QCheck.(triple (int_range 20 80) (int_range 3 15) (int_range 1 100000))
    (fun (gates, cap, seed) ->
      let circuit = make_circuit ~gates ~seed in
      let ch = Charac.make ~library:Library.default circuit in
      let rng = Rng.create seed in
      let p = Iddq_evolution.Seeds.chain_partition ~rng ~module_size:cap ch in
      List.for_all (fun m -> Partition.size p m <= cap) (Partition.module_ids p))

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_partition_io_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_standard_sizes_exact;
    QCheck_alcotest.to_alcotest qcheck_sensor_area_antitone_in_rs;
    QCheck_alcotest.to_alcotest qcheck_chain_seed_sizes_bounded;
  ]
