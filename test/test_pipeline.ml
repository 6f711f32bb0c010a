module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Constraints = Iddq_core.Constraints
module Iscas = Iddq_netlist.Iscas
module Es = Iddq_evolution.Es

let fast_es =
  { Es.default_params with Es.max_generations = 40; stall_generations = 40 }

let fast_config = Pipeline.config ~es_params:fast_es ()

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let test_method_string_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Pipeline.method_to_string m)
        true
        (Pipeline.method_of_string (Pipeline.method_to_string m) = Some m))
    [
      Pipeline.Evolution; Pipeline.Standard; Pipeline.Random;
      Pipeline.Annealing; Pipeline.Refined_standard;
    ];
  Alcotest.(check bool) "unknown" true (Pipeline.method_of_string "nope" = None)

let run_method m =
  ok (Pipeline.run_result ~config:fast_config m (Iscas.c432_like ()))

let check_result name (r : Pipeline.t) =
  Alcotest.(check (result unit string)) (name ^ " consistent") (Ok ())
    (Partition.check_consistent r.Pipeline.partition);
  Alcotest.(check bool) (name ^ " feasible") true
    (Constraints.satisfied r.Pipeline.partition);
  Alcotest.(check int)
    (name ^ " one sensor per module")
    (Partition.num_modules r.Pipeline.partition)
    (List.length r.Pipeline.sensors);
  Alcotest.(check bool) (name ^ " area positive") true
    (r.Pipeline.breakdown.Cost.sensor_area > 0.0)

let test_all_methods_run () =
  List.iter
    (fun m -> check_result (Pipeline.method_to_string m) (run_method m))
    [
      Pipeline.Evolution; Pipeline.Standard; Pipeline.Random;
      Pipeline.Annealing; Pipeline.Refined_standard;
    ]

let test_compare_methods_shares_sizes () =
  let results =
    ok
      (Pipeline.compare_methods_result ~config:fast_config (Iscas.c432_like ())
         [ Pipeline.Evolution; Pipeline.Standard ])
  in
  match results with
  | [ (Pipeline.Evolution, evo); (Pipeline.Standard, std) ] ->
    (* the standard baseline runs at the evolution's module sizes *)
    let sizes p =
      List.sort compare
        (List.map (Partition.size p.Pipeline.partition)
           (Partition.module_ids p.Pipeline.partition))
    in
    Alcotest.(check (list int)) "same module sizes" (sizes evo) (sizes std)
  | _ -> Alcotest.fail "unexpected result shape"

let test_evolution_beats_standard_area () =
  (* the paper's headline claim, on the small stand-in *)
  let results =
    ok
      (Pipeline.compare_methods_result ~config:fast_config (Iscas.c432_like ())
         [ Pipeline.Evolution; Pipeline.Standard ])
  in
  match results with
  | [ (_, evo); (_, std) ] ->
    let area r = r.Pipeline.breakdown.Cost.sensor_area in
    Alcotest.(check bool)
      (Printf.sprintf "evolution %.3e <= standard %.3e" (area evo) (area std))
      true
      (area evo <= area std *. 1.02)
  | _ -> Alcotest.fail "unexpected result shape"

let test_report_row () =
  let results =
    ok
      (Pipeline.compare_methods_result ~config:fast_config (Iscas.c432_like ())
         [ Pipeline.Evolution; Pipeline.Standard ])
  in
  match results with
  | [ (_, evolution); (_, standard) ] ->
    let row = Report.row_of_results ~circuit_name:"C432" ~standard ~evolution in
    Alcotest.(check string) "name" "C432" row.Report.circuit_name;
    Alcotest.(check (float 1e-6)) "overhead formula"
      (100.0
      *. (row.Report.area_standard -. row.Report.area_evolution)
      /. row.Report.area_evolution)
      row.Report.area_overhead_percent;
    let table = Report.table [ row ] in
    let rendered = Iddq_util.Table.render table in
    Alcotest.(check bool) "table mentions the circuit" true
      (String.length rendered > 0)
  | _ -> Alcotest.fail "unexpected result shape"

let test_compare_methods_preserves_order () =
  (* evolution executes first even when listed last, but the returned
     association list preserves the caller's order *)
  let methods = [ Pipeline.Standard; Pipeline.Evolution; Pipeline.Random ] in
  let results =
    ok
      (Pipeline.compare_methods_result ~config:fast_config (Iscas.c432_like ())
         methods)
  in
  Alcotest.(check (list string)) "caller order preserved"
    (List.map Pipeline.method_to_string methods)
    (List.map (fun (m, _) -> Pipeline.method_to_string m) results)

let test_compare_methods_equals_seeded_run () =
  (* the standard leg of compare_methods is exactly a direct Standard
     run whose reference_sizes are the evolution result's sizes *)
  let circuit = Iscas.c432_like () in
  let results =
    ok
      (Pipeline.compare_methods_result ~config:fast_config circuit
         [ Pipeline.Evolution; Pipeline.Standard ])
  in
  match results with
  | [ (_, evo); (_, std) ] ->
    let sizes =
      List.map
        (Partition.size evo.Pipeline.partition)
        (Partition.module_ids evo.Pipeline.partition)
    in
    let config = Pipeline.config ~es_params:fast_es ~reference_sizes:sizes () in
    let direct = ok (Pipeline.run_result ~config Pipeline.Standard circuit) in
    Alcotest.(check bool) "same partition as a directly seeded run" true
      (Partition.assignment std.Pipeline.partition
      = Partition.assignment direct.Pipeline.partition)
  | _ -> Alcotest.fail "unexpected result shape"

let test_deterministic_given_seed () =
  let r1 = run_method Pipeline.Evolution in
  let r2 = run_method Pipeline.Evolution in
  Alcotest.(check bool) "same partition" true
    (Partition.assignment r1.Pipeline.partition
    = Partition.assignment r2.Pipeline.partition)

let test_module_size_config () =
  let config = Pipeline.config ~es_params:fast_es ~module_size:20 () in
  let r =
    ok (Pipeline.run_result ~config Pipeline.Standard (Iscas.c432_like ()))
  in
  Alcotest.(check int) "160/20 = 8 modules" 8
    (Partition.num_modules r.Pipeline.partition)

(* ------------------------------------------------------------------ *)
(* Facade: the config builder and result-typed entry points            *)
(* ------------------------------------------------------------------ *)

let test_config_builder_defaults () =
  Alcotest.(check bool) "config () is default_config" true
    (Pipeline.config () = Pipeline.default_config);
  let c = Pipeline.config ~seed:9 ~module_size:12 () in
  Alcotest.(check int) "seed set" 9 c.Pipeline.seed;
  Alcotest.(check bool) "module_size set" true
    (c.Pipeline.module_size = Some 12);
  Alcotest.(check bool) "untouched fields stay default" true
    (c.Pipeline.library == Pipeline.default_config.Pipeline.library
    && c.Pipeline.weights = Pipeline.default_config.Pipeline.weights
    && c.Pipeline.reference_sizes = None)

let test_run_result_ok_matches_run () =
  let config = Pipeline.config ~es_params:fast_es ~seed:42 () in
  let circuit = Iscas.c432_like () in
  let r = ok (Pipeline.run_result ~config Pipeline.Standard circuit) in
  let ch =
    Iddq_analysis.Charac.make ~library:config.Pipeline.library circuit
  in
  let direct = ok (Pipeline.run_charac_result ~config Pipeline.Standard ch) in
  Alcotest.(check bool) "run_result agrees with run_charac_result" true
    (Partition.assignment r.Pipeline.partition
    = Partition.assignment direct.Pipeline.partition)

let test_run_result_bad_configs () =
  let circuit = Iscas.c17 () in
  let bad name config =
    match Pipeline.run_result ~config Pipeline.Standard circuit with
    | Error (Pipeline.Bad_config _) -> ()
    | Error e ->
      Alcotest.failf "%s: expected Bad_config, got %s" name
        (Pipeline.error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  bad "module_size 0" (Pipeline.config ~module_size:0 ());
  bad "negative reference size" (Pipeline.config ~reference_sizes:[ -1; 7 ] ());
  bad "reference sizes don't sum to gate count"
    (Pipeline.config ~reference_sizes:[ 1; 2 ] ());
  bad "degenerate ES population"
    (Pipeline.config
       ~es_params:{ fast_es with Iddq_evolution.Es.mu = 0 }
       ())

(* Pipeline checks ES parameters through [Es.validate], so it accepts
   exactly what [Es.run] accepts: a Monte-Carlo-only population
   (lambda = 0, chi > 0) runs, and no offspring at all is a
   [Bad_config]. *)
let test_run_result_es_params_match_es () =
  let circuit = Iscas.c17 () in
  let config es_params = Pipeline.config ~es_params ~seed:1 () in
  (match
     Pipeline.run_result
       ~config:(config { fast_es with Es.lambda = 0; chi = 9 })
       Pipeline.Evolution circuit
   with
  | Ok r ->
    Alcotest.(check bool) "lambda = 0, chi = 9 runs" true
      (Partition.num_modules r.Pipeline.partition >= 1)
  | Error e -> Alcotest.failf "lambda = 0, chi = 9: %s" (Pipeline.error_to_string e));
  match
    Pipeline.run_result
      ~config:(config { fast_es with Es.lambda = 0; chi = 0 })
      Pipeline.Evolution circuit
  with
  | Error (Pipeline.Bad_config _) -> ()
  | Error e ->
    Alcotest.failf "lambda = chi = 0: expected Bad_config, got %s"
      (Pipeline.error_to_string e)
  | Ok _ -> Alcotest.fail "lambda = chi = 0 accepted"

let test_run_result_infeasible_reported () =
  (* C17 in one module of 6 gates is produced regardless; with
     require_feasible the caller is told when constraints fail, and
     the error carries the achieved discriminability *)
  let config = Pipeline.config ~es_params:fast_es ~seed:1 () in
  let circuit = Iscas.c432_like () in
  match
    Pipeline.run_result ~config ~require_feasible:true Pipeline.Random circuit
  with
  | Ok r ->
    Alcotest.(check bool) "feasible when no error" true
      (r.Pipeline.breakdown.Cost.feasible)
  | Error (Pipeline.Infeasible { method_; _ }) ->
    Alcotest.(check bool) "infeasible carries the method" true
      (method_ = Pipeline.Random)
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let test_compare_methods_result_ok () =
  let config = Pipeline.config ~es_params:fast_es () in
  match
    Pipeline.compare_methods_result ~config (Iscas.c432_like ())
      [ Pipeline.Standard; Pipeline.Evolution ]
  with
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)
  | Ok results ->
    Alcotest.(check (list string)) "order preserved"
      [ "standard"; "evolution" ]
      (List.map (fun (m, _) -> Pipeline.method_to_string m) results)

(* Every cost evaluation of a run is recorded in the registry its
   caller passed, and nowhere else: the counts are exact, so a path that
   records into any other registry comes up short. *)
let test_run_metrics_are_the_callers () =
  let module Metrics = Iddq_util.Metrics in
  let c17 = Iscas.c17 () in
  let ch =
    Iddq_analysis.Charac.make ~library:Iddq_celllib.Library.default c17
  in
  let rng = Iddq_util.Rng.create 5 in
  let start = Iddq_evolution.Seeds.chain_partition ~rng ~module_size:3 ch in
  let metrics = Metrics.create () in
  let proposals = ref 0 in
  let on_move ~step:_ ~gate:_ ~src:_ ~target:_ ~accepted:_ = incr proposals in
  ignore
    (Iddq_baseline.Annealing.optimize ~metrics ~on_move ~rng
       ~params:{ Iddq_baseline.Annealing.default_params with steps = 300 }
       start);
  Alcotest.(check bool) "annealing proposed moves" true (!proposals > 0);
  (* one query per proposal, plus the start and the best *)
  Alcotest.(check int) "annealing: every evaluation is the caller's"
    (!proposals + 2)
    (Metrics.evaluations (Metrics.snapshot metrics));
  let r = ok (Pipeline.run_result Pipeline.Standard c17) in
  let rng = Iddq_util.Rng.create 3 in
  let vectors =
    Array.init 16 (fun _ -> Array.init 5 (fun _ -> Iddq_util.Rng.bool rng))
  in
  let faults =
    Iddq_defects.Fault.random_population ~rng c17 ~count:12
      ~defect_current:1e-5
  in
  let metrics = Metrics.create () in
  ignore
    (Iddq_defects.Iddq_sim.run_partitioned ~metrics r.Pipeline.partition
       ~vectors ~faults);
  Alcotest.(check int) "Iddq_sim: its one evaluation is the caller's" 1
    (Metrics.get (Metrics.snapshot metrics) Metrics.full_evals);
  let metrics = Metrics.create () in
  ignore
    (ok
       (Pipeline.run_result ~config:(Pipeline.config ~metrics ())
          Pipeline.Refined_standard c17));
  Alcotest.(check bool) "refined-standard: recorded in the caller's" true
    (Metrics.evaluations (Metrics.snapshot metrics) > 0)

let tests =
  [
    Alcotest.test_case "method strings" `Quick test_method_string_roundtrip;
    Alcotest.test_case "config builder" `Quick test_config_builder_defaults;
    Alcotest.test_case "run_result ok" `Slow test_run_result_ok_matches_run;
    Alcotest.test_case "run_result bad configs" `Quick
      test_run_result_bad_configs;
    Alcotest.test_case "run_result ES params = Es.validate" `Quick
      test_run_result_es_params_match_es;
    Alcotest.test_case "run_result require_feasible" `Slow
      test_run_result_infeasible_reported;
    Alcotest.test_case "compare_methods_result" `Slow
      test_compare_methods_result_ok;
    Alcotest.test_case "all methods run" `Slow test_all_methods_run;
    Alcotest.test_case "compare shares sizes" `Slow test_compare_methods_shares_sizes;
    Alcotest.test_case "evolution beats standard" `Slow
      test_evolution_beats_standard_area;
    Alcotest.test_case "report row" `Slow test_report_row;
    Alcotest.test_case "compare preserves order" `Slow
      test_compare_methods_preserves_order;
    Alcotest.test_case "compare equals seeded run" `Slow
      test_compare_methods_equals_seeded_run;
    Alcotest.test_case "deterministic" `Slow test_deterministic_given_seed;
    Alcotest.test_case "module size config" `Quick test_module_size_config;
    Alcotest.test_case "run metrics are the caller's" `Quick
      test_run_metrics_are_the_callers;
  ]
