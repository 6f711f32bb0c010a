(* Cross-library integration: the full flow wired end to end. *)

module Pipeline = Iddq.Pipeline
module Partition = Iddq_core.Partition
module Partition_io = Iddq_core.Partition_io
module Cost = Iddq_core.Cost
module Charac = Iddq_analysis.Charac
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Es = Iddq_evolution.Es

let fast_config =
  Pipeline.config
    ~es_params:
      { Es.default_params with Es.max_generations = 30; stall_generations = 30 }
    ()

let run m c =
  match Pipeline.run_result ~config:fast_config m c with
  | Ok r -> r
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let test_pipeline_partition_io_cost_stable () =
  (* synthesize -> save -> reload -> identical cost *)
  let r = run Pipeline.Evolution (Iscas.c432_like ()) in
  let text = Partition_io.to_string r.Pipeline.partition in
  match Partition_io.of_string r.Pipeline.charac text with
  | Error e -> Alcotest.failf "reload: %s" (Iddq_util.Io_error.to_string e)
  | Ok p ->
    let a = (Cost.evaluate p).Cost.penalized in
    let b = r.Pipeline.breakdown.Cost.penalized in
    Alcotest.(check (float 1e-9)) "cost preserved" b a

let test_pipeline_dot_renders () =
  let circuit = Iscas.c17 () in
  let r = run Pipeline.Standard circuit in
  let dot =
    Iddq_netlist.Dot.of_circuit
      ~module_of_gate:(Partition.module_of_gate r.Pipeline.partition)
      circuit
  in
  Alcotest.(check bool) "clusters present" true
    (String.length dot > 100)

let test_pipeline_schedule_consistent () =
  (* the schedule's parallel policy must reproduce the cost model's
     per-vector test time *)
  let r = run Pipeline.Standard (Iscas.c432_like ()) in
  let tech = Charac.technology r.Pipeline.charac in
  let sched =
    Iddq_bic.Schedule.parallel ~technology:tech
      ~d_bic:r.Pipeline.breakdown.Cost.bic_delay r.Pipeline.sensors
  in
  Alcotest.(check (float 1e-15)) "parallel schedule = cost model"
    r.Pipeline.breakdown.Cost.test_time_per_vector
    sched.Iddq_bic.Schedule.vector_time

let test_resynth_composes_with_pipeline () =
  let r = run Pipeline.Evolution (Iscas.c432_like ()) in
  let res = Iddq_resynth.Drive_select.optimize ~max_swaps:8 r.Pipeline.partition in
  (* the re-characterized partition still passes every invariant *)
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent res.Iddq_resynth.Drive_select.partition);
  Alcotest.(check bool) "same grouping" true
    (Partition.assignment res.Iddq_resynth.Drive_select.partition
    = Partition.assignment r.Pipeline.partition)

let test_atpg_vectors_feed_iddq_sim () =
  let circuit = Iscas.c17 () in
  let atpg =
    match
      Iddq_atpg.Atpg.run_result
        ~config:(Iddq_atpg.Atpg.config ~seed:7 ~random_vectors:0 ())
        circuit
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Iddq_atpg.Atpg.error_to_string e)
  in
  let ch = Charac.make ~library:Iddq_celllib.Library.default circuit in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let defects =
    [
      {
        Iddq_defects.Fault.fault =
          Iddq_defects.Fault.Floating_gate
            (Option.get (Circuit.node_id_of_name circuit "16"));
        defect_current = 2e-6;
      };
    ]
  in
  let r =
    Iddq_defects.Iddq_sim.run_partitioned p ~vectors:atpg.Iddq_atpg.Atpg.vectors
      ~faults:defects
  in
  Alcotest.(check (float 0.0)) "floating gate caught by the ATPG set" 1.0
    r.Iddq_defects.Iddq_sim.coverage

let test_verilog_bench_pipeline_agree () =
  (* the same circuit through either netlist format synthesizes to the
     same cost *)
  let c_bench = Iscas.c17 () in
  let v_text = Iddq_netlist.Verilog_io.to_string c_bench in
  let c_verilog =
    match Iddq_netlist.Verilog_io.parse_string v_text with
    | Ok c -> c
    | Error e -> Alcotest.failf "verilog: %s" (Iddq_util.Io_error.to_string e)
  in
  let cost c =
    (run Pipeline.Standard c).Pipeline.breakdown.Cost.penalized
  in
  Alcotest.(check (float 1e-9)) "same cost" (cost c_bench) (cost c_verilog)

let test_placement_of_pipeline_modules () =
  let circuit = Iscas.c432_like () in
  let r = run Pipeline.Standard circuit in
  let placement = Iddq_layout.Placement.place circuit in
  List.iter
    (fun m ->
      let gates = Partition.members r.Pipeline.partition m in
      let rail = Iddq_layout.Placement.module_rail_length placement gates in
      Alcotest.(check bool) "rail finite and positive" true
        (rail >= 0.0 && Float.is_finite rail))
    (Partition.module_ids r.Pipeline.partition)

let tests =
  [
    Alcotest.test_case "pipeline -> partition_io -> cost" `Quick
      test_pipeline_partition_io_cost_stable;
    Alcotest.test_case "pipeline -> dot" `Quick test_pipeline_dot_renders;
    Alcotest.test_case "pipeline -> schedule" `Quick
      test_pipeline_schedule_consistent;
    Alcotest.test_case "pipeline -> resynth" `Quick
      test_resynth_composes_with_pipeline;
    Alcotest.test_case "atpg -> iddq sim" `Quick test_atpg_vectors_feed_iddq_sim;
    Alcotest.test_case "verilog = bench pipeline" `Quick
      test_verilog_bench_pipeline_agree;
    Alcotest.test_case "pipeline -> placement" `Quick
      test_placement_of_pipeline_modules;
  ]
