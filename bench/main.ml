(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations of DESIGN.md §4.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe table1      # one experiment
     dune exec bench/main.exe quick       # table1 on a small stand-in

   The experiments are listed once, in [experiments] at the end.
   They report and never gate: the thresholds on [testset] and
   [diagnose] are the "ISCAS85 grid gate" cases of test_testset and
   test_diagnose. *)

module Table = Iddq_util.Table
module Rng = Iddq_util.Rng
module Circuit = Iddq_netlist.Circuit
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Technology = Iddq_celllib.Technology
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Sensor = Iddq_bic.Sensor
module Es = Iddq_evolution.Es
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Standard = Iddq_baseline.Standard
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Clock = Iddq_util.Clock

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

let bench_es_params =
  { Es.default_params with Es.max_generations = 250; stall_generations = 50 }

let bench_config = Pipeline.config ~es_params:bench_es_params ()

(* The experiments run fixed inputs, so a pipeline error is a bug. *)
let ok_or_fail = function
  | Ok r -> r
  | Error e -> failwith (Pipeline.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Table 1: standard vs evolution on the ISCAS85 suite                 *)
(* ------------------------------------------------------------------ *)

(* The paper's Table 1 numbers, for side-by-side reference.  Delay and
   test-time rows are only partially legible in the source scan; the
   legible values are ~5.9e-2 % for both methods. *)
let paper_table1 =
  [
    ("C1908", 2, 1.08e6, 8.27e5, 30.6);
    ("C2670", 3, 5.67e5, 4.95e5, 14.5);
    ("C3540", 4, 2.79e6, 2.27e6, 22.9);
    ("C5315", 6, 2.87e6, 2.29e6, 25.3);
    ("C6288", 5, 9.19e5, 7.30e5, 25.9);
    ("C7552", 6, 5.65e6, 4.72e6, 19.7);
  ]

let run_table1 suite =
  section "Table 1: sensor area, delay and test time - standard vs evolution";
  let rows =
    List.map
      (fun (name, circuit) ->
        Printf.printf "partitioning %s (%d gates)...\n%!" name
          (Circuit.num_gates circuit);
        let results =
          ok_or_fail
            (Pipeline.compare_methods_result ~config:bench_config circuit
               [ Pipeline.Evolution; Pipeline.Standard ])
        in
        match results with
        | [ (_, evolution); (_, standard) ] ->
          Report.row_of_results ~circuit_name:name ~standard ~evolution
        | _ -> assert false)
      suite
  in
  print_newline ();
  Table.print (Report.table rows);
  print_newline ();
  (* paper-vs-measured summary *)
  let cmp =
    Table.create
      [
        ("circuit", Table.Left);
        ("#mod paper", Table.Right);
        ("#mod ours", Table.Right);
        ("ovh paper %", Table.Right);
        ("ovh ours %", Table.Right);
        ("shape holds", Table.Left);
      ]
  in
  List.iter
    (fun (r : Report.row) ->
      match
        List.find_opt (fun (n, _, _, _, _) -> n = r.Report.circuit_name) paper_table1
      with
      | None -> ()
      | Some (_, k_paper, _, _, ovh_paper) ->
        Table.add_row cmp
          [
            r.Report.circuit_name;
            string_of_int k_paper;
            string_of_int r.Report.num_modules_evolution;
            Printf.sprintf "%.1f" ovh_paper;
            Printf.sprintf "%.1f" r.Report.area_overhead_percent;
            (if r.Report.area_overhead_percent > 0.0 then "yes (evolution wins)"
             else "NO");
          ])
    rows;
  Table.print cmp

(* ------------------------------------------------------------------ *)
(* Figure 2: partition shape vs required switch size                   *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "Figure 2: group shape vs BIC sensor area (2-D cell array)";
  let t =
    Table.create
      [
        ("array", Table.Left);
        ("partition", Table.Left);
        ("worst imax (A)", Table.Right);
        ("sensor area", Table.Right);
        ("area ratio", Table.Right);
      ]
  in
  List.iter
    (fun (rows, cols) ->
      let circuit = Generator.cell_array ~rows ~cols in
      let ch = Charac.make ~library:Library.default circuit in
      let assignment ~f =
        let a = Array.make (Circuit.num_gates circuit) 0 in
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            a.(Generator.cell_array_gate ~rows ~cols ~r ~c) <- f r c
          done
        done;
        a
      in
      let area p =
        List.fold_left (fun acc (_, s) -> acc +. s.Sensor.area) 0.0
          (Partition.sensors p)
      in
      let worst p =
        List.fold_left
          (fun acc m -> Stdlib.max acc (Partition.max_transient_current p m))
          0.0 (Partition.module_ids p)
      in
      let by_rows = Partition.create ch ~assignment:(assignment ~f:(fun r _ -> r)) in
      let by_cols = Partition.create ch ~assignment:(assignment ~f:(fun _ c -> c)) in
      let label = Printf.sprintf "%dx%d" rows cols in
      Table.add_row t
        [
          label; "1 (rows)";
          Printf.sprintf "%.3e" (worst by_rows);
          Printf.sprintf "%.3e" (area by_rows);
          "1.00";
        ];
      Table.add_row t
        [
          label; "2 (columns)";
          Printf.sprintf "%.3e" (worst by_cols);
          Printf.sprintf "%.3e" (area by_cols);
          Printf.sprintf "%.2f" (area by_cols /. area by_rows);
        ])
    [ (3, 3); (6, 6); (9, 12) ];
  Table.print t;
  Printf.printf
    "\nPartition 1 (row-shaped groups) is preferred: its cells never switch\n\
     in the same slot, so the bypass switches stay small (the paper's Fig. 2).\n"

(* ------------------------------------------------------------------ *)
(* Figures 3-5: the C17 worked example                                 *)
(* ------------------------------------------------------------------ *)

let c17_library () =
  (* threshold scaled so discriminability caps modules at 3 gates,
     mirroring the paper's illustration *)
  let technology =
    { Technology.default with Technology.iddq_threshold = 4.0e-9 }
  in
  match
    Library.make ~name:"cmos1u-c17" ~technology
      ~cells:
        (List.map
           (fun k -> (k, Library.cell Library.default k))
           Iddq_netlist.Gate.all_kinds)
      ()
  with
  | Ok l -> l
  | Error e -> failwith e

let run_c17 () =
  section "Figures 3-5: evolution steps on C17";
  let circuit = Iscas.c17 () in
  let ch = Charac.make ~library:(c17_library ()) circuit in
  let rng = Rng.create 42 in
  let starts = Seeds.population ~rng ~module_size:3 ~count:4 ch in
  let params =
    { Es.default_params with Es.max_generations = 120; stall_generations = 30 }
  in
  let best, trace = Part_iddq.optimize ~params ~rng ~starts () in
  let t =
    Table.create
      [ ("generation", Table.Right); ("best cost", Table.Right);
        ("mean cost", Table.Right) ]
  in
  List.iteri
    (fun i (r : Es.generation_report) ->
      if i < 8 || i = List.length trace - 1 then
        Table.add_row t
          [
            string_of_int r.Es.generation;
            Printf.sprintf "%.4f" r.Es.best_cost;
            Printf.sprintf "%.4f" r.Es.mean_cost;
          ])
    trace;
  Table.print t;
  let p = best.Es.solution in
  Printf.printf "\nfinal partition (cost %.4f, %d modules):\n" best.Es.cost
    (Partition.num_modules p);
  List.iter
    (fun m ->
      let names =
        Array.to_list (Partition.members p m)
        |> List.map (fun g -> Circuit.node_name circuit (Circuit.node_of_gate circuit g))
      in
      Printf.printf "  module %d: {%s}\n" m (String.concat "," names))
    (Partition.module_ids p);
  Printf.printf
    "paper optimum: {(10,16,22),(11,19,23)} - two balanced 3-gate modules\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: sensor PASS/FAIL behaviour, exercised end to end          *)
(* ------------------------------------------------------------------ *)

let run_fig1 () =
  section "Figure 1: BIC sensor detection behaviour (defect injection)";
  let circuit = Iscas.c432_like () in
  let result =
    ok_or_fail
      (Pipeline.run_result ~config:bench_config Pipeline.Evolution circuit)
  in
  let rng = Rng.create 7 in
  let faults =
    Iddq_defects.Fault.random_population ~rng circuit ~count:150
      ~defect_current:2.0e-6
  in
  let vectors = Iddq_patterns.Pattern_gen.random ~rng circuit ~count:64 in
  let r =
    Iddq_defects.Iddq_sim.run_partitioned result.Pipeline.partition ~vectors
      ~faults
  in
  Printf.printf
    "C432 stand-in, %d modules, %d injected defects (2 uA), %d vectors:\n"
    (Partition.num_modules result.Pipeline.partition)
    (List.length faults) (Array.length vectors);
  Printf.printf "  coverage: %.1f%%   total test time: %.3e s\n"
    (100.0 *. r.Iddq_defects.Iddq_sim.coverage)
    r.Iddq_defects.Iddq_sim.test_time

(* ------------------------------------------------------------------ *)
(* Ablation A: optimizers                                              *)
(* ------------------------------------------------------------------ *)

let run_ablation_opt () =
  section "Ablation A: optimizer comparison (C1908 stand-in)";
  let circuit = Iscas.c1908_like () in
  let methods =
    [
      Pipeline.Evolution; Pipeline.Standard; Pipeline.Refined_standard;
      Pipeline.Annealing; Pipeline.Random;
    ]
  in
  let results =
    ok_or_fail
      (Pipeline.compare_methods_result ~config:bench_config circuit methods)
  in
  let t =
    Table.create
      [
        ("method", Table.Left); ("modules", Table.Right);
        ("cost", Table.Right); ("sensor area", Table.Right);
        ("feasible", Table.Left);
      ]
  in
  List.iter
    (fun (m, (r : Pipeline.t)) ->
      Table.add_row t
        [
          Pipeline.method_to_string m;
          string_of_int (Partition.num_modules r.Pipeline.partition);
          Printf.sprintf "%.2f" r.Pipeline.breakdown.Cost.penalized;
          Printf.sprintf "%.3e" r.Pipeline.breakdown.Cost.sensor_area;
          (if r.Pipeline.breakdown.Cost.feasible then "yes" else "no");
        ])
    results;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablation B: cost-weight sensitivity                                 *)
(* ------------------------------------------------------------------ *)

let run_ablation_weights () =
  section "Ablation B: weight sensitivity (C1908 stand-in)";
  let circuit = Iscas.c1908_like () in
  let variants =
    [
      ("paper (9,1e5,1,1,10)", Cost.paper_weights);
      ("equal (1,1,1,1,1)", Cost.equal_weights);
      ( "area-only",
        { Cost.equal_weights with Cost.w_area = 100.0; w_delay = 0.0 } );
      ( "delay-heavy",
        { Cost.paper_weights with Cost.w_delay = 1.0e7 } );
      ( "few-modules",
        { Cost.paper_weights with Cost.w_module_count = 1000.0 } );
    ]
  in
  let t =
    Table.create
      [
        ("weights", Table.Left); ("modules", Table.Right);
        ("sensor area", Table.Right); ("delay ovh %", Table.Right);
        ("test ovh %", Table.Right);
      ]
  in
  List.iter
    (fun (label, weights) ->
      let config = Pipeline.config ~es_params:bench_es_params ~weights () in
      let r =
        ok_or_fail (Pipeline.run_result ~config Pipeline.Evolution circuit)
      in
      let b = r.Pipeline.breakdown in
      Table.add_row t
        [
          label;
          string_of_int (Partition.num_modules r.Pipeline.partition);
          Printf.sprintf "%.3e" b.Cost.sensor_area;
          Printf.sprintf "%.2e" (100.0 *. b.Cost.c2_delay);
          Printf.sprintf "%.2e"
            (100.0
            *. (b.Cost.test_time_per_vector -. b.Cost.nominal_delay)
            /. b.Cost.nominal_delay);
        ])
    variants;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablation C: ES control parameters                                   *)
(* ------------------------------------------------------------------ *)

let run_ablation_es () =
  section "Ablation C: evolution-strategy control parameters (C1908 stand-in)";
  let circuit = Iscas.c1908_like () in
  let base = { bench_es_params with Es.max_generations = 150 } in
  let variants =
    [
      ("mu=4 lambda=7 chi=2 (default)", base);
      ("mu=1 lambda=7 chi=2", { base with Es.mu = 1 });
      ("mu=8 lambda=14 chi=4", { base with Es.mu = 8; lambda = 14; chi = 4 });
      ("no Monte-Carlo (chi=0)", { base with Es.chi = 0 });
      ("only Monte-Carlo (lambda=0)", { base with Es.lambda = 0; chi = 9 });
      ("short lifetime (omega=2)", { base with Es.omega = 2 });
    ]
  in
  let t =
    Table.create
      [
        ("parameters", Table.Left); ("generations", Table.Right);
        ("final cost", Table.Right); ("sensor area", Table.Right);
      ]
  in
  List.iter
    (fun (label, es_params) ->
      let config = Pipeline.config ~es_params () in
      let r =
        ok_or_fail (Pipeline.run_result ~config Pipeline.Evolution circuit)
      in
      Table.add_row t
        [
          label;
          string_of_int r.Pipeline.generations;
          Printf.sprintf "%.2f" r.Pipeline.breakdown.Cost.penalized;
          Printf.sprintf "%.3e" r.Pipeline.breakdown.Cost.sensor_area;
        ])
    variants;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablation D: cost-aware drive selection (the paper's future work)    *)
(* ------------------------------------------------------------------ *)

let run_ablation_resynth () =
  section
    "Ablation D: cost-aware drive selection after partitioning (paper §6 \
     future work)";
  let t =
    Table.create
      [
        ("circuit", Table.Left); ("swaps", Table.Right);
        ("area before", Table.Right); ("area after", Table.Right);
        ("saved %", Table.Right); ("delay ovh before %", Table.Right);
        ("delay ovh after %", Table.Right); ("nominal D stretched", Table.Left);
      ]
  in
  List.iter
    (fun (name, circuit) ->
      let r =
        ok_or_fail
          (Pipeline.run_result ~config:bench_config Pipeline.Evolution circuit)
      in
      let res =
        Iddq_resynth.Drive_select.optimize ~max_swaps:128 r.Pipeline.partition
      in
      let before = res.Iddq_resynth.Drive_select.before in
      let after = res.Iddq_resynth.Drive_select.after in
      Table.add_row t
        [
          name;
          string_of_int (List.length res.Iddq_resynth.Drive_select.swaps);
          Printf.sprintf "%.3e" before.Cost.sensor_area;
          Printf.sprintf "%.3e" after.Cost.sensor_area;
          Printf.sprintf "%.1f"
            (100.0 *. (1.0 -. (after.Cost.sensor_area /. before.Cost.sensor_area)));
          Printf.sprintf "%.2e" (100.0 *. before.Cost.c2_delay);
          Printf.sprintf "%.2e" (100.0 *. after.Cost.c2_delay);
          (if after.Cost.nominal_delay > before.Cost.nominal_delay +. 1e-15 then
             "YES (bug)"
           else "no");
        ])
    [ ("C432", Iscas.c432_like ()); ("C1908", Iscas.c1908_like ()) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Validation: estimator pessimism vs realized switching activity      *)
(* ------------------------------------------------------------------ *)

let run_validation_activity () =
  section "Validation: pessimistic i_DD,max estimator vs realized activity";
  let t =
    Table.create
      [
        ("circuit", Table.Left); ("module", Table.Right);
        ("estimated imax (A)", Table.Right); ("realized imax (A)", Table.Right);
        ("pessimism x", Table.Right);
      ]
  in
  List.iter
    (fun (name, circuit) ->
      let r =
        ok_or_fail
          (Pipeline.run_result ~config:bench_config Pipeline.Evolution circuit)
      in
      let ch = r.Pipeline.charac in
      let rng = Rng.create 11 in
      let vectors = Iddq_patterns.Pattern_gen.random ~rng circuit ~count:128 in
      List.iter
        (fun m ->
          let gates = Partition.members r.Pipeline.partition m in
          let act = Iddq_analysis.Activity.measure ch ~gates ~vectors in
          let estimated =
            Iddq_analysis.Switching.max_transient_current ch gates
          in
          Table.add_row t
            [
              name; string_of_int m;
              Printf.sprintf "%.3e" estimated;
              Printf.sprintf "%.3e" act.Iddq_analysis.Activity.realized_max;
              Printf.sprintf "%.2f"
                (Iddq_analysis.Activity.pessimism_ratio ch ~gates act);
            ])
        (Partition.module_ids r.Pipeline.partition))
    [ ("C432", Iscas.c432_like ()); ("C1908", Iscas.c1908_like ()) ];
  Table.print t;
  Printf.printf
    "\nThe estimator upper-bounds every realization (ratio >= 1); its margin\n\
     is the safety the paper buys by assuming all reachable transitions\n\
     coincide.  Sensors sized from it never see a larger transient.\n"

(* ------------------------------------------------------------------ *)
(* Granularity trade-off (paper §1: fine vs coarse partitions)         *)
(* ------------------------------------------------------------------ *)

let run_tradeoff () =
  section
    "Granularity trade-off: fine grain = discriminability + speed, coarse \
     grain = area (paper §1)";
  let circuit = Iscas.c3540_like () in
  let ch = Charac.make ~library:Library.default circuit in
  let tech = Charac.technology ch in
  let t =
    Table.create
      [
        ("#modules", Table.Right); ("sensor area", Table.Right);
        ("min discriminability", Table.Right); ("feasible (d>=10)", Table.Left);
        ("worst settling (s)", Table.Right); ("test time/vector (s)", Table.Right);
      ]
  in
  List.iter
    (fun k ->
      let p = Standard.partition_uniform ch ~num_modules:k in
      let b = Cost.evaluate p in
      let sensors = List.map snd (Partition.sensors p) in
      let worst_settle =
        List.fold_left
          (fun acc s -> Stdlib.max acc (Iddq_bic.Test_time.settling tech s))
          0.0 sensors
      in
      Table.add_row t
        [
          string_of_int k;
          Printf.sprintf "%.3e" b.Cost.sensor_area;
          Printf.sprintf "%.1f" b.Cost.min_discriminability;
          (if b.Cost.feasible then "yes" else "no");
          Printf.sprintf "%.3e" worst_settle;
          Printf.sprintf "%.3e" b.Cost.test_time_per_vector;
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Table.print t;
  Printf.printf
    "\nCoarse partitions are cheapest but fail discriminability; fine\n\
     partitions measure fast and discriminate well but multiply the\n\
     detection circuitry - the trade-off the cost function arbitrates.\n"

(* ------------------------------------------------------------------ *)
(* Sensor variants (paper §1: several sensing devices, each with       *)
(* advantages and disadvantages)                                       *)
(* ------------------------------------------------------------------ *)

let run_variants () =
  section "Sensing-device variants on one C1908 partition (paper §1 refs 7-12)";
  let circuit = Iscas.c1908_like () in
  let base =
    ok_or_fail
      (Pipeline.run_result ~config:bench_config Pipeline.Evolution circuit)
  in
  let assignment = Partition.assignment base.Pipeline.partition in
  let t =
    Table.create
      [
        ("variant", Table.Left); ("sensor area", Table.Right);
        ("delay ovh %", Table.Right); ("test time/vector (s)", Table.Right);
      ]
  in
  List.iter
    (fun variant ->
      let tech =
        Iddq_bic.Variants.technology_for
          (Library.technology Library.default)
          variant
      in
      let library =
        match Library.with_technology Library.default tech with
        | Ok l -> l
        | Error e -> failwith e
      in
      let ch = Charac.make ~library circuit in
      let p = Partition.create ch ~assignment in
      let b = Cost.evaluate p in
      Table.add_row t
        [
          Iddq_bic.Variants.to_string variant;
          Printf.sprintf "%.3e" b.Cost.sensor_area;
          Printf.sprintf "%.2e" (100.0 *. b.Cost.c2_delay);
          Printf.sprintf "%.3e" b.Cost.test_time_per_vector;
        ])
    Iddq_bic.Variants.all;
  Table.print t;
  Printf.printf
    "\nThe unbypassed pn-junction sensor is nearly free in area but its\n\
     fixed junction drop costs ~15x the delay overhead; the proportional\n\
     sensor pays detection-circuitry area for the fastest settling.\n"

(* ------------------------------------------------------------------ *)
(* IDDQ complements logic test (paper 1, refs 1-6)                     *)
(* ------------------------------------------------------------------ *)

let run_logic_vs_iddq_on name circuit =
  Printf.printf "-- %s --\n" name;
  let rng = Rng.create 3 in
  let vectors = Iddq_patterns.Pattern_gen.random ~rng circuit ~count:64 in
  (* stuck-at side *)
  let faults = Iddq_defects.Stuck_at.collapsed_fault_list circuit in
  let sa = Iddq_defects.Stuck_at.fault_simulate circuit ~vectors ~faults in
  Printf.printf
    "stuck-at (collapsed list, %d faults): %.1f%% coverage with %d random \
     vectors\n"
    sa.Iddq_defects.Stuck_at.total
    (100.0 *. sa.Iddq_defects.Stuck_at.coverage)
    (Array.length vectors);
  (* bridge side: sample non-feedback gate-to-gate bridges *)
  let n = Circuit.num_gates circuit in
  let bridges = ref [] in
  while List.length !bridges < 150 do
    let a = Circuit.node_of_gate circuit (Rng.int rng n) in
    let b = Circuit.node_of_gate circuit (Rng.int rng n) in
    if a <> b && not (Iddq_defects.Bridge_logic.is_feedback circuit a b) then
      bridges := (a, b) :: !bridges
  done;
  let logic_detected, iddq_detected, both, iddq_only =
    List.fold_left
      (fun (l, i, b, o) (na, nb) ->
        let logic =
          Array.exists
            (Iddq_defects.Bridge_logic.logic_detects circuit ~a:na ~b:nb)
            vectors
        in
        let iddq =
          Array.exists
            (Iddq_defects.Bridge_logic.iddq_detects circuit ~a:na ~b:nb)
            vectors
        in
        ( (if logic then l + 1 else l),
          (if iddq then i + 1 else i),
          (if logic && iddq then b + 1 else b),
          if iddq && not logic then o + 1 else o ))
      (0, 0, 0, 0) !bridges
  in
  let pct x = 100.0 *. float_of_int x /. float_of_int (List.length !bridges) in
  Printf.printf
    "bridging defects (%d sampled, wired-AND model, same vectors):\n\
     \  logic-detectable: %.1f%%   IDDQ-activated: %.1f%%   both: %.1f%%\n\
     \  caught ONLY by IDDQ: %.1f%% - the complementary coverage that\n\
     \  motivates built-in current testing (paper refs 1-6).\n"
    (List.length !bridges) (pct logic_detected) (pct iddq_detected) (pct both)
    (pct iddq_only)

let run_logic_vs_iddq () =
  section
    "IDDQ vs logic (stuck-at) testing: bridges that voltage test misses";
  run_logic_vs_iddq_on "C432 stand-in" (Iscas.c432_like ());
  run_logic_vs_iddq_on "C1908 stand-in" (Iscas.c1908_like ())

(* ------------------------------------------------------------------ *)
(* Measurement scheduling under a sensed-current budget                *)
(* ------------------------------------------------------------------ *)

let run_schedule () =
  section "Measurement scheduling: parallel vs budgeted vs serial strobes";
  let circuit = Iscas.c3540_like () in
  let ch = Charac.make ~library:Library.default circuit in
  let p = Standard.partition_uniform ch ~num_modules:8 in
  let b = Cost.evaluate p in
  let sensors = Partition.sensors p in
  let tech = Charac.technology ch in
  let d_bic = b.Cost.bic_delay in
  let t =
    Table.create
      [
        ("policy", Table.Left); ("sessions", Table.Right);
        ("vector time (s)", Table.Right); ("vs parallel", Table.Right);
      ]
  in
  let parallel = Iddq_bic.Schedule.parallel ~technology:tech ~d_bic sensors in
  let add label (s : Iddq_bic.Schedule.t) =
    Table.add_row t
      [
        label;
        string_of_int (List.length s.Iddq_bic.Schedule.sessions);
        Printf.sprintf "%.3e" s.Iddq_bic.Schedule.vector_time;
        Printf.sprintf "%.2fx"
          (s.Iddq_bic.Schedule.vector_time
          /. parallel.Iddq_bic.Schedule.vector_time);
      ]
  in
  add "parallel (paper model)" parallel;
  let worst_peak =
    List.fold_left
      (fun acc (_, s) -> Stdlib.max acc s.Iddq_bic.Sensor.peak_current)
      0.0 sensors
  in
  List.iter
    (fun scale ->
      add
        (Printf.sprintf "budget = %.1fx worst module" scale)
        (Iddq_bic.Schedule.schedule ~technology:tech ~d_bic
           ~budget:(scale *. worst_peak) sensors))
    [ 2.0; 1.0 ];
  add "serial" (Iddq_bic.Schedule.serial ~technology:tech ~d_bic sensors);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Routing validation: is S(M) a fair proxy for wiring cost?           *)
(* ------------------------------------------------------------------ *)

let run_routing () =
  section
    "Routing check (paper 5: wiring deferred, costs 'not expected to \
     differ'): placed wire lengths per partition";
  let circuit = Iscas.c1908_like () in
  let placement = Iddq_layout.Placement.place circuit in
  let results =
    ok_or_fail
      (Pipeline.compare_methods_result ~config:bench_config circuit
         [ Pipeline.Evolution; Pipeline.Standard ])
  in
  let t =
    Table.create
      [
        ("method", Table.Left); ("sum S(M)", Table.Right);
        ("rail length (pitches)", Table.Right);
        ("sensor chain (pitches)", Table.Right);
      ]
  in
  List.iter
    (fun (m, (r : Pipeline.t)) ->
      let p = r.Pipeline.partition in
      let modules =
        List.map (fun id -> Partition.members p id) (Partition.module_ids p)
      in
      let rail =
        List.fold_left
          (fun acc gates ->
            acc +. Iddq_layout.Placement.module_rail_length placement gates)
          0.0 modules
      in
      let chain = Iddq_layout.Placement.sensor_chain_length placement modules in
      let sep =
        List.fold_left
          (fun acc id -> acc + Partition.separation_total p id)
          0 (Partition.module_ids p)
      in
      Table.add_row t
        [
          Pipeline.method_to_string m;
          string_of_int sep;
          Printf.sprintf "%.1f" rail;
          Printf.sprintf "%.1f" chain;
        ])
    results;
  Table.print t;
  Printf.printf
    "\nBoth partitions route comparably - the paper's expectation when the\n\
     module counts match; at equal rail lengths the sensor area is what\n\
     separates the methods.\n"

(* ------------------------------------------------------------------ *)
(* Sizing policy: what the estimator's pessimism buys                  *)
(* ------------------------------------------------------------------ *)

let run_sizing () =
  section
    "Sensor sizing policy: pessimistic bound vs probabilistic vs realized \
     activity";
  let circuit = Iscas.c1908_like () in
  let r =
    ok_or_fail
      (Pipeline.run_result ~config:bench_config Pipeline.Evolution circuit)
  in
  let ch = r.Pipeline.charac in
  let tech = Charac.technology ch in
  let p = r.Pipeline.partition in
  let rng = Rng.create 31 in
  let vectors = Iddq_patterns.Pattern_gen.random ~rng circuit ~count:256 in
  let t =
    Table.create
      [
        ("sizing basis", Table.Left); ("sensor area", Table.Right);
        ("vs pessimistic", Table.Right); ("rail overshoots (256 vecs)", Table.Right);
      ]
  in
  let modules = Partition.module_ids p in
  let activity =
    List.map
      (fun m ->
        (m, Iddq_analysis.Activity.measure ch ~gates:(Partition.members p m) ~vectors))
      modules
  in
  let area_for basis =
    List.fold_left
      (fun acc m ->
        let i = basis m in
        let s =
          Iddq_bic.Sensor.size ~technology:tech ~peak_current:i
            ~module_rail_capacitance:(Partition.rail_capacitance p m)
        in
        acc +. s.Iddq_bic.Sensor.area)
      0.0 modules
  in
  (* how many modules would exceed the rail budget under the observed
     activity if sized for [basis]? *)
  let overshoots basis =
    List.fold_left
      (fun acc m ->
        let design = basis m in
        if design <= 0.0 then acc
        else begin
          let rs = tech.Technology.rail_budget /. design in
          let observed =
            (List.assoc m activity).Iddq_analysis.Activity.realized_max
          in
          if rs *. observed > tech.Technology.rail_budget +. 1e-12 then acc + 1
          else acc
        end)
      0 modules
  in
  let pessimistic m = Partition.max_transient_current p m in
  let probabilistic m =
    Iddq_analysis.Probability.expected_max_current ch (Partition.members p m)
  in
  let realized m = (List.assoc m activity).Iddq_analysis.Activity.realized_max in
  let base = area_for pessimistic in
  List.iter
    (fun (label, basis) ->
      Table.add_row t
        [
          label;
          Printf.sprintf "%.3e" (area_for basis);
          Printf.sprintf "%.2fx" (area_for basis /. base);
          Printf.sprintf "%d/%d" (overshoots basis) (List.length modules);
        ])
    [
      ("pessimistic i_DD,max (paper)", pessimistic);
      ("probabilistic expectation", probabilistic);
      ("realized max (the same 256 vectors)", realized);
    ];
  Table.print t;
  Printf.printf
    "\nSizing below the pessimistic bound shrinks the switches but lets the\n\
     observed transients bounce the rail past r* - the safety the paper's\n\
     estimator buys.  (Sizing at the realized max is tight by construction\n\
     for these vectors and unsafe for any other set.)\n"

(* ------------------------------------------------------------------ *)
(* Stability: the stochastic optimizer across seeds                    *)
(* ------------------------------------------------------------------ *)

let run_stability () =
  section "Seed stability: evolution vs standard across 5 optimizer seeds";
  let circuit = Iscas.c1908_like () in
  let params =
    { bench_es_params with Es.max_generations = 120; stall_generations = 40 }
  in
  let areas = ref [] and overheads = ref [] in
  List.iter
    (fun seed ->
      let config = Pipeline.config ~seed ~es_params:params () in
      let results =
        ok_or_fail
          (Pipeline.compare_methods_result ~config circuit
             [ Pipeline.Evolution; Pipeline.Standard ])
      in
      match results with
      | [ (_, evo); (_, std) ] ->
        let ae = evo.Pipeline.breakdown.Cost.sensor_area in
        let as_ = std.Pipeline.breakdown.Cost.sensor_area in
        areas := ae :: !areas;
        overheads := (100.0 *. (as_ -. ae) /. ae) :: !overheads
      | _ -> assert false)
    [ 1; 7; 42; 101; 9999 ];
  let areas = Array.of_list !areas and overheads = Array.of_list !overheads in
  Printf.printf
    "evolution sensor area: mean %.3e, sd %.2e (%.1f%% of mean)\n\
     standard-over-evolution overhead: mean %.1f%%, min %.1f%%, max %.1f%%\n\
     the headline direction (evolution wins) held on %d/5 seeds\n"
    (Iddq_util.Stats.mean areas)
    (Iddq_util.Stats.stddev areas)
    (100.0 *. Iddq_util.Stats.stddev areas /. Iddq_util.Stats.mean areas)
    (Iddq_util.Stats.mean overheads)
    (fst (Iddq_util.Stats.min_max overheads))
    (snd (Iddq_util.Stats.min_max overheads))
    (Array.fold_left (fun acc o -> if o > 0.0 then acc + 1 else acc) 0 overheads)

(* ------------------------------------------------------------------ *)
(* Co-optimization: alternate partitioning and drive selection         *)
(* ------------------------------------------------------------------ *)

let run_cooptimize () =
  section
    "Co-optimization: alternating the partitioner and drive selection \
     (one step past paper 6)";
  let circuit = Iscas.c1908_like () in
  let rng = Rng.create 42 in
  let params =
    { bench_es_params with Es.max_generations = 120; stall_generations = 40 }
  in
  let t =
    Table.create
      [
        ("round", Table.Left); ("sensor area", Table.Right);
        ("cost", Table.Right); ("low-drive gates", Table.Right);
      ]
  in
  let count_lp ch =
    let n = Charac.num_gates ch in
    let c = ref 0 in
    for g = 0 to n - 1 do
      if Charac.is_low_power ch g then incr c
    done;
    !c
  in
  (* round 0: plain ES *)
  let ch0 = Charac.make ~library:Library.default circuit in
  let starts = Seeds.population ~rng ~count:4 ch0 in
  let best, _ = Part_iddq.optimize ~params ~rng ~starts () in
  let p = ref best.Es.solution in
  let record label =
    let b = Cost.evaluate !p in
    Table.add_row t
      [
        label;
        Printf.sprintf "%.3e" b.Cost.sensor_area;
        Printf.sprintf "%.2f" b.Cost.penalized;
        string_of_int (count_lp (Partition.charac !p));
      ]
  in
  record "0: partition (ES)";
  for round = 1 to 2 do
    (* drive selection on the current partition *)
    let res = Iddq_resynth.Drive_select.optimize ~max_swaps:96 !p in
    p := res.Iddq_resynth.Drive_select.partition;
    record (Printf.sprintf "%d: + drive selection" round);
    (* re-partition on the re-characterized netlist, seeded from the
       current grouping *)
    let ch = Partition.charac !p in
    let seed_partition = Partition.create ch ~assignment:(Partition.assignment !p) in
    let fresh = Seeds.population ~rng ~count:3 ch in
    let best, _ =
      Part_iddq.optimize ~params ~rng ~starts:(seed_partition :: fresh) ()
    in
    p := best.Es.solution;
    record (Printf.sprintf "%d: + re-partition" round)
  done;
  Table.print t;
  Printf.printf
    "\nEach pass keeps helping: drive selection flattens the peaks the\n\
     current partition exposes, and re-partitioning then regroups around\n\
     the new current profile - the paper's 6 loop, closed.\n"

(* ------------------------------------------------------------------ *)
(* diagnose: signature-based localization accuracy vs module count     *)
(* ------------------------------------------------------------------ *)

(* The diagnosis question (DESIGN.md §11): once a partition's sensors
   report pass/fail per vector, how well does the signature localize
   the defect, and how does that resolution grow with module count?
   For each ISCAS85 stand-in and uniform k-module partition we build
   the diagnosis engine, record its ambiguity/diagnosability summary,
   and Monte-Carlo the localization accuracy, noiseless and with every
   pass/fail cell flipped at 2%.  Numbers land in BENCH_diagnose.json;
   the thresholds on them (exact top-1 class 1.0 on every trial, noisy
   top-3 module accuracy >= 0.9 in aggregate) are the test_diagnose
   case "ISCAS85 grid gate". *)
let diagnose_json = "BENCH_diagnose.json"

let run_diagnose () =
  section "diagnose: IDDQ signature localization vs module count";
  let module Diagnose = Iddq_diagnose.Diagnose in
  let module Fault = Iddq_defects.Fault in
  let module Json = Iddq_util.Json in
  let n_vectors = 128 and n_faults = 200 and trials = 40 in
  let eps = 0.02 and top_k = 3 in
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("modules", Table.Right);
        ("detectable", Table.Right);
        ("classes", Table.Right);
        ("E[ambig]", Table.Right);
        ("entropy", Table.Right);
        ("exact top-1", Table.Right);
        ("noisy top-1 mod", Table.Right);
        ("noisy top-3 mod", Table.Right);
      ]
  in
  let noisy_hits = ref 0 and noisy_trials = ref 0 in
  let records = ref [] in
  List.iter
    (fun (name, circuit) ->
      let ch = Charac.make ~library:Library.default circuit in
      List.iter
        (fun k ->
          let p = Standard.partition_uniform ch ~num_modules:k in
          let rng = Rng.create 42 in
          let faults =
            Fault.random_population ~rng circuit ~count:n_faults
              ~defect_current:2e-6
          in
          let vectors =
            Iddq_patterns.Pattern_gen.random ~rng circuit ~count:n_vectors
          in
          let d = Diagnose.build p ~vectors ~faults in
          let s = Diagnose.diagnosability d in
          let exact = Diagnose.measure_accuracy ~rng ~top_k ~trials d in
          let noisy =
            Diagnose.measure_accuracy ~rng ~epsilon:eps ~top_k ~trials d
          in
          noisy_hits :=
            !noisy_hits
            + int_of_float
                (Float.round
                   (noisy.Diagnose.topk_module
                   *. float_of_int noisy.Diagnose.trials));
          noisy_trials := !noisy_trials + noisy.Diagnose.trials;
          Table.add_row t
            [
              name;
              string_of_int (Diagnose.num_modules d);
              Printf.sprintf "%d/%d" s.Diagnose.detectable s.Diagnose.faults;
              string_of_int s.Diagnose.classes;
              Printf.sprintf "%.2f" s.Diagnose.expected_ambiguity;
              Printf.sprintf "%.2f b" s.Diagnose.entropy_bits;
              Printf.sprintf "%.2f" exact.Diagnose.top1_class;
              Printf.sprintf "%.2f" noisy.Diagnose.top1_module;
              Printf.sprintf "%.2f" noisy.Diagnose.topk_module;
            ];
          records :=
            Json.Obj
              [
                ("circuit", Json.String name);
                ("modules", Json.Int (Diagnose.num_modules d));
                ("vectors", Json.Int n_vectors);
                ("faults", Json.Int s.Diagnose.faults);
                ("detectable", Json.Int s.Diagnose.detectable);
                ("classes", Json.Int s.Diagnose.classes);
                ("silent", Json.Int s.Diagnose.silent);
                ("expected_ambiguity", Json.Float s.Diagnose.expected_ambiguity);
                ("entropy_bits", Json.Float s.Diagnose.entropy_bits);
                ("diagnosability_cost", Json.Float (Diagnose.c6_diagnosability d));
                ("exact_top1_class", Json.Float exact.Diagnose.top1_class);
                ("exact_top1_module", Json.Float exact.Diagnose.top1_module);
                ("epsilon", Json.Float eps);
                ("noisy_top1_module", Json.Float noisy.Diagnose.top1_module);
                ("noisy_topk_module", Json.Float noisy.Diagnose.topk_module);
                ("top_k", Json.Int top_k);
                ("trials", Json.Int trials);
              ]
            :: !records)
        [ 2; 4; 8; 16 ])
    [
      ("C432", Iscas.c432_like ());
      ("C880", Iscas.c880_like ());
      ("C1908", Iscas.c1908_like ());
      ("C3540", Iscas.c3540_like ());
    ];
  Table.print t;
  let noisy_rate =
    if !noisy_trials = 0 then 0.0
    else float_of_int !noisy_hits /. float_of_int !noisy_trials
  in
  let doc =
    Json.Obj
      [
        ("experiment", Json.String "diagnose");
        ("records", Json.List (List.rev !records));
        ("noisy_topk_aggregate", Json.Float noisy_rate);
      ]
  in
  (match
     Iddq_util.Io.write_file_atomic diagnose_json (Json.to_string doc ^ "\n")
   with
  | Ok () -> Printf.printf "\nwrote %s\n" diagnose_json
  | Error e ->
    Printf.printf "\nFAILED writing %s: %s\n" diagnose_json
      (Iddq_util.Io_error.to_string e));
  Printf.printf "diagnose: eps=%.2f top-%d module %.3f aggregate\n" eps top_k
    noisy_rate

(* ------------------------------------------------------------------ *)
(* ATPG test-set generation + minimization (the Atpg facade loop)      *)
(* ------------------------------------------------------------------ *)

(* Coverage, vectors before and after each minimization strategy,
   their runtimes and the c4/test-time delta on the ISCAS85 grid land
   in BENCH_testset.json; the thresholds on them are the test_testset
   case "ISCAS85 grid gate". *)
let testset_json = "BENCH_testset.json"

let run_testset () =
  section
    "ATPG test-set loop: PODEM top-up + minimization (vectors drive c4)";
  let module Json = Iddq_util.Json in
  let module Atpg = Iddq_atpg.Atpg in
  let module Coverage = Iddq_defects.Coverage in
  let seed = 11 and random_vectors = 32 and max_backtracks = 64 in
  let strategies =
    [ (Atpg.Greedy, "greedy"); (Atpg.Essential, "essential");
      (Atpg.Refined, "refined") ]
  in
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("faults", Table.Right);
        ("random cov%", Table.Right);
        ("full cov%", Table.Right);
        ("vectors", Table.Right);
        ("greedy", Table.Right);
        ("essential", Table.Right);
        ("refined", Table.Right);
        ("test time x", Table.Right);
      ]
  in
  let records = ref [] in
  let shrunk = ref 0 in
  List.iter
    (fun (name, circuit) ->
      (* The random-only baseline is the facade's own initial set: the
         facade seeds [Rng.create seed] and draws the random vectors
         first, so this reproduces them exactly. *)
      let rng = Rng.create seed in
      let initial =
        Iddq_patterns.Pattern_gen.random ~rng circuit ~count:random_vectors
      in
      let faults = Iddq_defects.Stuck_at.collapsed_fault_list circuit in
      let random_only =
        Iddq_defects.Stuck_at.fault_simulate circuit ~vectors:initial ~faults
      in
      let config =
        Atpg.config ~max_backtracks ~seed ~random_vectors
          ~strategy:Atpg.Greedy ()
      in
      let t0 = Clock.now_ns () in
      let r =
        match Atpg.run_result ~config circuit with
        | Ok r -> r
        | Error e -> failwith (Atpg.error_to_string e)
      in
      let gen_seconds = Clock.seconds_since t0 in
      let minimized =
        List.map
          (fun (s, sname) ->
            let t0 = Clock.now_ns () in
            let sel =
              match Atpg.minimize_result ~strategy:s r.Atpg.matrix with
              | Ok sel -> sel
              | Error e -> failwith (Atpg.error_to_string e)
            in
            (s, sname, sel, Clock.seconds_since t0))
          strategies
      in
      let size s =
        let _, _, sel, _ =
          List.find (fun (s', _, _, _) -> s' = s) minimized
        in
        Array.length sel
      in
      let best =
        List.fold_left
          (fun acc (_, _, sel, _) -> Stdlib.min acc (Array.length sel))
          r.Atpg.vectors_before minimized
      in
      if best < r.Atpg.vectors_before then incr shrunk;
      (* the c4 wiring: vectors saved, priced on this circuit's own
         synthesized design *)
      let time_ratio, time_fields =
        match Pipeline.run_result Pipeline.Standard circuit with
        | Error _ -> (1.0, [])
        | Ok p ->
          let before =
            Pipeline.test_time p ~vectors:r.Atpg.vectors_before
          in
          let after = Pipeline.test_time p ~vectors:(size Atpg.Refined) in
          ( (if after > 0.0 then before /. after else 1.0),
            [
              ("test_time_before_s", Json.Float before);
              ("test_time_after_s", Json.Float after);
              ( "c4_before",
                Json.Float
                  (Pipeline.c4_of_vectors p ~vectors:r.Atpg.vectors_before) );
              ( "c4_after",
                Json.Float
                  (Pipeline.c4_of_vectors p ~vectors:(size Atpg.Refined)) );
            ] )
      in
      Table.add_row t
        [
          name;
          string_of_int (Coverage.num_faults r.Atpg.matrix);
          Printf.sprintf "%.1f"
            (100.0 *. random_only.Iddq_defects.Stuck_at.coverage);
          Printf.sprintf "%.1f" (100.0 *. r.Atpg.coverage);
          string_of_int r.Atpg.vectors_before;
          string_of_int (size Atpg.Greedy);
          string_of_int (size Atpg.Essential);
          string_of_int (size Atpg.Refined);
          Printf.sprintf "%.1fx" time_ratio;
        ];
      records :=
        Json.Obj
          ([
             ("circuit", Json.String name);
             ("faults", Json.Int (Coverage.num_faults r.Atpg.matrix));
             ( "random_coverage",
               Json.Float random_only.Iddq_defects.Stuck_at.coverage );
             ("coverage", Json.Float r.Atpg.coverage);
             ("efficiency", Json.Float r.Atpg.efficiency);
             ("vectors_before", Json.Int r.Atpg.vectors_before);
             ("random", Json.Int r.Atpg.stats.Iddq_atpg.Testset.random);
             ("generated", Json.Int r.Atpg.stats.Iddq_atpg.Testset.generated);
             ( "untestable",
               Json.Int r.Atpg.stats.Iddq_atpg.Testset.untestable );
             ("aborted", Json.Int r.Atpg.stats.Iddq_atpg.Testset.aborted);
             ("generation_seconds", Json.Float gen_seconds);
             ( "strategies",
               Json.List
                 (List.map
                    (fun (_, sname, sel, dt) ->
                      Json.Obj
                        [
                          ("strategy", Json.String sname);
                          ("vectors", Json.Int (Array.length sel));
                          ("seconds", Json.Float dt);
                        ])
                    minimized) );
           ]
          @ time_fields)
        :: !records)
    [
      ("C432", Iscas.c432_like ());
      ("C880", Iscas.c880_like ());
      ("C1908", Iscas.c1908_like ());
      ("C3540", Iscas.c3540_like ());
    ];
  Table.print t;
  let doc =
    Json.Obj
      [
        ("experiment", Json.String "testset");
        ("seed", Json.Int seed);
        ("random_vectors", Json.Int random_vectors);
        ("max_backtracks", Json.Int max_backtracks);
        ("records", Json.List (List.rev !records));
        ("minimized_smaller_on", Json.Int !shrunk);
      ]
  in
  (match
     Iddq_util.Io.write_file_atomic testset_json (Json.to_string doc ^ "\n")
   with
  | Ok () -> Printf.printf "\nwrote %s\n" testset_json
  | Error e ->
    Printf.printf "\nFAILED writing %s: %s\n" testset_json
      (Iddq_util.Io_error.to_string e));
  Printf.printf "testset: minimized smaller on %d/4\n" !shrunk

(* ------------------------------------------------------------------ *)

let quick_suite () = [ ("C432", Iscas.c432_like ()) ]

(* The full evaluation, in run order. *)
let experiments =
  [
    ("table1", fun () -> run_table1 (Iscas.table1_suite ()));
    ("fig2", run_fig2);
    ("c17", run_c17);
    ("fig1", run_fig1);
    ("ablation-opt", run_ablation_opt);
    ("ablation-weights", run_ablation_weights);
    ("ablation-es", run_ablation_es);
    ("ablation-resynth", run_ablation_resynth);
    ("validation", run_validation_activity);
    ("tradeoff", run_tradeoff);
    ("variants", run_variants);
    ("logic-vs-iddq", run_logic_vs_iddq);
    ("schedule", run_schedule);
    ("routing", run_routing);
    ("testset", run_testset);
    ("sizing", run_sizing);
    ("stability", run_stability);
    ("cooptimize", run_cooptimize);
    ("diagnose", run_diagnose);
  ]

let run_all () = List.iter (fun (_, run) -> run ()) experiments

let commands =
  experiments
  @ [ ("quick", fun () -> run_table1 (quick_suite ())); ("all", run_all) ]

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> run_all ()
  | args ->
    List.iter
      (fun name ->
        match List.assoc_opt name commands with
        | Some run -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S (try: %s)\n" name
            (String.concat " " (List.map fst commands));
          exit 1)
      args)
