let suites =
  [
      ("rng", Test_rng.tests);
      ("metrics", Test_metrics.tests);
      ("stats", Test_stats.tests);
      ("table", Test_table.tests);
      ("gate", Test_gate.tests);
      ("builder", Test_builder.tests);
      ("bench-io", Test_bench_io.tests);
      ("graph-algo", Test_graph_algo.tests);
      (* the pool the striped kernel runs its stripes on keeps its
         place in this group *)
      ("level-schedule", Test_level_schedule.tests @ Test_domain_pool.tests);
      ("generator", Test_generator.tests);
      ("iscas", Test_iscas.tests);
      ("celllib", Test_celllib.tests);
      ("charac", Test_charac.tests);
      ("switching", Test_switching.tests);
      ("timing", Test_timing.tests);
      ("bic", Test_bic.tests);
      ("partition", Test_partition.tests);
      ("cost", Test_cost.tests);
      ("es", Test_es.tests);
      ("seeds-mutation", Test_seeds_mutation.tests);
      ("baseline", Test_baseline.tests);
      ("patterns", Test_patterns.tests);
      ("defects", Test_defects.tests);
      ("pipeline", Test_pipeline.tests);
      ("campaign", Test_campaign.tests);
      ("activity", Test_activity.tests);
      ("dot-partition-io", Test_dot_partition_io.tests);
      ("resynth", Test_resynth.tests);
      ("scoap-probability", Test_scoap_probability.tests);
      ("coverage-variants", Test_coverage_variants.tests);
      ("stuck-at", Test_stuck_at.tests);
      ("podem", Test_podem.tests);
      ("testset", Test_testset.tests);
      ("io-extras", Test_io_extras.tests);
      ("io-robust", Test_io_robust.tests);
      ("integration", Test_integration.tests);
      ("qcheck-extras", Test_qcheck_extras.tests);
      ("parallel-sim", Test_parallel_sim.tests);
      ("fault-sim", Test_fault_sim.tests);
      ("kernels", Test_kernels.tests);
      ("misc-edges", Test_misc_edges.tests);
      ("netlist-passes", Test_netlist_passes.tests);
      ("diagnose", Test_diagnose.tests);
      ("experiments", Test_experiments.tests);
      ("cli-usage", Test_cli_usage.tests);
      ("server", Test_server.tests);
    ]

(* Last, reading the names of every group above. *)
let () =
  Alcotest.run "iddq" (suites @ [ ("claim-index", Test_claim_index.tests suites) ])
