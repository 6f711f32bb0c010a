(* Benchmark harness: prints every table and figure of the paper's
   evaluation, plus the ablations of DESIGN.md §4.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe table1      # one experiment
     dune exec bench/main.exe quick       # table1 on a small stand-in

   The experiments themselves are the functions of [Experiments]; this
   file only lays their rows out.  They report and never gate: the
   bounds on them are the tests EXPERIMENTS.md's claim index names. *)

module Table = Iddq_util.Table
module Stats = Iddq_util.Stats
module Circuit = Iddq_netlist.Circuit
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Es = Iddq_evolution.Es
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Diagnose = Iddq_diagnose.Diagnose
module Atpg = Iddq_atpg.Atpg
module E = Experiments

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

let table columns rows =
  let t = Table.create columns in
  List.iter (Table.add_row t) rows;
  Table.print t

let e3 = Printf.sprintf "%.3e"
let pct_e2 x = Printf.sprintf "%.2e" (100.0 *. x)

(* ------------------------------------------------------------------ *)
(* Table 1: standard vs evolution on the ISCAS85 suite                 *)
(* ------------------------------------------------------------------ *)

let run_table1 names =
  section "Table 1: sensor area, delay and test time - standard vs evolution";
  let rows =
    List.map
      (fun name ->
        Printf.printf "partitioning %s (%d gates)...\n%!" name
          (Circuit.num_gates (E.circuit name));
        E.table1_row name)
      names
  in
  print_newline ();
  Table.print (Report.table rows);
  print_newline ();
  (* paper-vs-measured summary *)
  table
    [
      ("circuit", Table.Left); ("#mod paper", Table.Right);
      ("#mod ours", Table.Right); ("ovh paper %", Table.Right);
      ("ovh ours %", Table.Right); ("shape holds", Table.Left);
    ]
    (List.filter_map
       (fun (r : Report.row) ->
         List.find_opt
           (fun (n, _, _) -> n = r.Report.circuit_name)
           E.paper_table1
         |> Option.map (fun (_, k_paper, ovh_paper) ->
                [
                  r.Report.circuit_name;
                  string_of_int k_paper;
                  string_of_int r.Report.num_modules_evolution;
                  Printf.sprintf "%.1f" ovh_paper;
                  Printf.sprintf "%.1f" r.Report.area_overhead_percent;
                  (if r.Report.area_overhead_percent > 0.0 then
                     "yes (evolution wins)"
                   else "NO");
                ]))
       rows)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "Figure 2: group shape vs BIC sensor area (2-D cell array)";
  table
    [
      ("array", Table.Left); ("partition", Table.Left);
      ("worst imax (A)", Table.Right); ("sensor area", Table.Right);
      ("area ratio", Table.Right);
    ]
    (List.concat_map
       (fun (r : E.fig2_row) ->
         let label = Printf.sprintf "%dx%d" r.E.rows r.E.cols in
         [
           [ label; "1 (rows)"; e3 r.E.row_worst; e3 r.E.row_area; "1.00" ];
           [
             label; "2 (columns)"; e3 r.E.col_worst; e3 r.E.col_area;
             Printf.sprintf "%.2f" (r.E.col_area /. r.E.row_area);
           ];
         ])
       (E.fig2 ()));
  Printf.printf
    "\nPartition 1 (row-shaped groups) is preferred: its cells never switch\n\
     in the same slot, so the bypass switches stay small (the paper's Fig. 2).\n"

let run_c17 () =
  section "Figures 3-5: evolution steps on C17";
  let r = E.c17 () in
  let last = List.length r.E.trace - 1 in
  table
    [ ("generation", Table.Right); ("best cost", Table.Right);
      ("mean cost", Table.Right) ]
    (List.filteri (fun i _ -> i < 8 || i = last) r.E.trace
    |> List.map (fun (g : Es.generation_report) ->
           [
             string_of_int g.Es.generation;
             Printf.sprintf "%.4f" g.Es.best_cost;
             Printf.sprintf "%.4f" g.Es.mean_cost;
           ]));
  Printf.printf "\nfinal partition (cost %.4f, %d modules):\n" r.E.cost
    (List.length r.E.modules);
  List.iter
    (fun (m, names) ->
      Printf.printf "  module %d: {%s}\n" m (String.concat "," names))
    r.E.modules;
  Printf.printf
    "paper optimum: {(10,16,22),(11,19,23)} - two balanced 3-gate modules\n"

let run_fig1 () =
  section "Figure 1: BIC sensor detection behaviour (defect injection)";
  let r = E.fig1 () in
  Printf.printf
    "C432 stand-in, %d modules, %d injected defects (2 uA), %d vectors:\n"
    r.E.modules r.E.defects r.E.vectors;
  Printf.printf "  coverage: %.1f%%   total test time: %.3e s\n"
    (100.0 *. r.E.sim.Iddq_defects.Iddq_sim.coverage)
    r.E.sim.Iddq_defects.Iddq_sim.test_time

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablation_opt () =
  section "Ablation A: optimizer comparison (C1908 stand-in)";
  table
    [
      ("method", Table.Left); ("modules", Table.Right);
      ("cost", Table.Right); ("sensor area", Table.Right);
      ("feasible", Table.Left);
    ]
    (List.map
       (fun (m, (r : Pipeline.t)) ->
         let b = r.Pipeline.breakdown in
         [
           Pipeline.method_to_string m;
           string_of_int (Partition.num_modules r.Pipeline.partition);
           Printf.sprintf "%.2f" b.Cost.penalized;
           e3 b.Cost.sensor_area;
           (if b.Cost.feasible then "yes" else "no");
         ])
       (E.ablation_opt ()))

let run_ablation_weights () =
  section "Ablation B: weight sensitivity (C1908 stand-in)";
  table
    [
      ("weights", Table.Left); ("modules", Table.Right);
      ("sensor area", Table.Right); ("delay ovh %", Table.Right);
      ("test ovh %", Table.Right);
    ]
    (List.map
       (fun (label, (r : Pipeline.t)) ->
         let b = r.Pipeline.breakdown in
         [
           label;
           string_of_int (Partition.num_modules r.Pipeline.partition);
           e3 b.Cost.sensor_area;
           pct_e2 b.Cost.c2_delay;
           pct_e2
             ((b.Cost.test_time_per_vector -. b.Cost.nominal_delay)
             /. b.Cost.nominal_delay);
         ])
       (E.ablation_weights ()))

let run_ablation_es () =
  section "Ablation C: evolution-strategy control parameters (C1908 stand-in)";
  table
    [
      ("parameters", Table.Left); ("generations", Table.Right);
      ("final cost", Table.Right); ("sensor area", Table.Right);
    ]
    (List.map
       (fun (label, (r : Pipeline.t)) ->
         [
           label;
           string_of_int r.Pipeline.generations;
           Printf.sprintf "%.2f" r.Pipeline.breakdown.Cost.penalized;
           e3 r.Pipeline.breakdown.Cost.sensor_area;
         ])
       (E.ablation_es ()))

let run_ablation_resynth () =
  section
    "Ablation D: cost-aware drive selection after partitioning (paper §6 \
     future work)";
  let module D = Iddq_resynth.Drive_select in
  table
    [
      ("circuit", Table.Left); ("swaps", Table.Right);
      ("area before", Table.Right); ("area after", Table.Right);
      ("saved %", Table.Right); ("delay ovh before %", Table.Right);
      ("delay ovh after %", Table.Right); ("nominal D stretched", Table.Left);
    ]
    (List.map
       (fun (name, (res : D.result)) ->
         let before = res.D.before and after = res.D.after in
         [
           name;
           string_of_int (List.length res.D.swaps);
           e3 before.Cost.sensor_area;
           e3 after.Cost.sensor_area;
           Printf.sprintf "%.1f"
             (100.0 *. (1.0 -. (after.Cost.sensor_area /. before.Cost.sensor_area)));
           pct_e2 before.Cost.c2_delay;
           pct_e2 after.Cost.c2_delay;
           (if after.Cost.nominal_delay > before.Cost.nominal_delay +. 1e-15 then
              "YES (bug)"
            else "no");
         ])
       (E.ablation_resynth ()))

(* ------------------------------------------------------------------ *)
(* Validations and §1 trade-offs                                       *)
(* ------------------------------------------------------------------ *)

let run_validation_activity () =
  section "Validation: pessimistic i_DD,max estimator vs realized activity";
  table
    [
      ("circuit", Table.Left); ("module", Table.Right);
      ("estimated imax (A)", Table.Right); ("realized imax (A)", Table.Right);
      ("pessimism x", Table.Right);
    ]
    (List.map
       (fun (r : E.validation_row) ->
         [
           r.E.circuit; string_of_int r.E.module_; e3 r.E.estimated;
           e3 r.E.realized; Printf.sprintf "%.2f" r.E.pessimism;
         ])
       (E.validation ()));
  Printf.printf
    "\nThe estimator upper-bounds every realization (ratio >= 1); its margin\n\
     is the safety the paper buys by assuming all reachable transitions\n\
     coincide.  Sensors sized from it never see a larger transient.\n"

let run_tradeoff () =
  section
    "Granularity trade-off: fine grain = discriminability + speed, coarse \
     grain = area (paper §1)";
  table
    [
      ("#modules", Table.Right); ("sensor area", Table.Right);
      ("min discriminability", Table.Right); ("feasible (d>=10)", Table.Left);
      ("worst settling (s)", Table.Right); ("test time/vector (s)", Table.Right);
    ]
    (List.map
       (fun (k, b, settle) ->
         [
           string_of_int k;
           e3 b.Cost.sensor_area;
           Printf.sprintf "%.1f" b.Cost.min_discriminability;
           (if b.Cost.feasible then "yes" else "no");
           e3 settle;
           e3 b.Cost.test_time_per_vector;
         ])
       (E.tradeoff ()));
  Printf.printf
    "\nCoarse partitions are cheapest but fail discriminability; fine\n\
     partitions measure fast and discriminate well but multiply the\n\
     detection circuitry - the trade-off the cost function arbitrates.\n"

let run_variants () =
  section "Sensing-device variants on one C1908 partition (paper §1 refs 7-12)";
  table
    [
      ("variant", Table.Left); ("sensor area", Table.Right);
      ("delay ovh %", Table.Right); ("test time/vector (s)", Table.Right);
    ]
    (List.map
       (fun (variant, b) ->
         [
           Iddq_bic.Variants.to_string variant;
           e3 b.Cost.sensor_area;
           pct_e2 b.Cost.c2_delay;
           e3 b.Cost.test_time_per_vector;
         ])
       (E.variants ()));
  Printf.printf
    "\nThe unbypassed pn-junction sensor is nearly free in area but its\n\
     fixed junction drop costs ~15x the delay overhead; the proportional\n\
     sensor pays detection-circuitry area for the fastest settling.\n"

let run_logic_vs_iddq () =
  section
    "IDDQ vs logic (stuck-at) testing: bridges that voltage test misses";
  List.iter
    (fun (r : E.logic_vs_iddq_row) ->
      let sa = r.E.stuck_at in
      Printf.printf "-- %s stand-in --\n" r.E.stand_in;
      Printf.printf
        "stuck-at (collapsed list, %d faults): %.1f%% coverage with %d random \
         vectors\n"
        sa.Iddq_defects.Stuck_at.total
        (100.0 *. sa.Iddq_defects.Stuck_at.coverage)
        r.E.vectors;
      let pct x = 100.0 *. float_of_int x /. float_of_int r.E.bridges in
      Printf.printf
        "bridging defects (%d sampled, wired-AND model, same vectors):\n\
         \  logic-detectable: %.1f%%   IDDQ-activated: %.1f%%   both: %.1f%%\n\
         \  caught ONLY by IDDQ: %.1f%% - the complementary coverage that\n\
         \  motivates built-in current testing (paper refs 1-6).\n"
        r.E.bridges (pct r.E.logic_detected) (pct r.E.iddq_detected)
        (pct r.E.both) (pct r.E.iddq_only))
    (E.logic_vs_iddq ())

let run_sizing () =
  section
    "Sensor sizing policy: pessimistic bound vs probabilistic vs realized \
     activity";
  let rows = E.sizing () in
  let base = (List.hd rows).E.area in
  table
    [
      ("sizing basis", Table.Left); ("sensor area", Table.Right);
      ("vs pessimistic", Table.Right); ("rail overshoots (256 vecs)", Table.Right);
    ]
    (List.map
       (fun (r : E.sizing_row) ->
         [
           r.E.basis; e3 r.E.area;
           Printf.sprintf "%.2fx" (r.E.area /. base);
           Printf.sprintf "%d/%d" r.E.overshoots r.E.modules;
         ])
       rows);
  Printf.printf
    "\nSizing below the pessimistic bound shrinks the switches but lets the\n\
     observed transients bounce the rail past r* - the safety the paper's\n\
     estimator buys.  (Sizing at the realized max is tight by construction\n\
     for these vectors and unsafe for any other set.)\n"

let run_stability () =
  section "Seed stability: evolution vs standard across 5 optimizer seeds";
  let runs = E.stability () in
  let areas = Array.of_list (List.map fst runs)
  and overheads = Array.of_list (List.map snd runs) in
  Printf.printf
    "evolution sensor area: mean %.3e, sd %.2e (%.1f%% of mean)\n\
     standard-over-evolution overhead: mean %.1f%%, min %.1f%%, max %.1f%%\n\
     the headline direction (evolution wins) held on %d/5 seeds\n"
    (Stats.mean areas) (Stats.stddev areas)
    (100.0 *. Stats.stddev areas /. Stats.mean areas)
    (Stats.mean overheads)
    (fst (Stats.min_max overheads))
    (snd (Stats.min_max overheads))
    (Array.fold_left (fun acc o -> if o > 0.0 then acc + 1 else acc) 0 overheads)

let run_cooptimize () =
  section
    "Co-optimization: alternating the partitioner and drive selection \
     (one step past paper 6)";
  table
    [
      ("round", Table.Left); ("sensor area", Table.Right);
      ("cost", Table.Right); ("low-drive gates", Table.Right);
    ]
    (List.map
       (fun (label, b, low_drive) ->
         [
           label; e3 b.Cost.sensor_area;
           Printf.sprintf "%.2f" b.Cost.penalized; string_of_int low_drive;
         ])
       (E.cooptimize ()));
  Printf.printf
    "\nThe weighted cost falls at every step, and the sensor area at every\n\
     step but the last re-partition, which trades a little area for the\n\
     other cost terms: drive selection flattens the peaks the current\n\
     partition exposes, and re-partitioning then regroups around the new\n\
     current profile - the paper's 6 loop, closed.\n"

(* ------------------------------------------------------------------ *)
(* The ISCAS85 grids: diagnosis and ATPG test sets                     *)
(* ------------------------------------------------------------------ *)

let run_diagnose () =
  section "diagnose: IDDQ signature localization vs module count";
  let rows = E.diagnose_grid () in
  table
    [
      ("circuit", Table.Left); ("modules", Table.Right);
      ("detectable", Table.Right); ("classes", Table.Right);
      ("E[ambig]", Table.Right); ("entropy", Table.Right);
      ("exact top-1", Table.Right); ("noisy top-1 mod", Table.Right);
      ("noisy top-3 mod", Table.Right);
    ]
    (List.map
       (fun (r : E.diagnose_row) ->
         let s = r.E.summary in
         [
           r.E.circuit;
           string_of_int r.E.modules;
           Printf.sprintf "%d/%d" s.Diagnose.detectable s.Diagnose.faults;
           string_of_int s.Diagnose.classes;
           Printf.sprintf "%.2f" s.Diagnose.expected_ambiguity;
           Printf.sprintf "%.2f b" s.Diagnose.entropy_bits;
           Printf.sprintf "%.2f" r.E.exact.Diagnose.top1_class;
           Printf.sprintf "%.2f" r.E.noisy.Diagnose.top1_module;
           Printf.sprintf "%.2f" r.E.noisy.Diagnose.topk_module;
         ])
       rows);
  let noisy = (List.hd rows).E.noisy in
  Printf.printf "\ndiagnose: eps=%.2f top-%d module %.3f aggregate\n"
    noisy.Diagnose.epsilon noisy.Diagnose.top_k (E.noisy_topk_rate rows)

let run_testset () =
  section
    "ATPG test-set loop: PODEM top-up + minimization (vectors drive c4)";
  let rows = E.testset_grid () in
  let size (r : E.testset_row) s = Array.length (List.assoc s r.E.minimized) in
  table
    [
      ("circuit", Table.Left); ("faults", Table.Right);
      ("random cov%", Table.Right); ("full cov%", Table.Right);
      ("vectors", Table.Right); ("greedy", Table.Right);
      ("essential", Table.Right); ("refined", Table.Right);
      ("test time x", Table.Right);
    ]
    (List.map
       (fun (r : E.testset_row) ->
         let a = r.E.result in
         [
           r.E.circuit;
           string_of_int (Iddq_defects.Coverage.num_faults a.Atpg.matrix);
           Printf.sprintf "%.1f"
             (100.0 *. r.E.random_only.Iddq_defects.Stuck_at.coverage);
           Printf.sprintf "%.1f" (100.0 *. a.Atpg.coverage);
           string_of_int a.Atpg.vectors_before;
           string_of_int (size r Atpg.Greedy);
           string_of_int (size r Atpg.Essential);
           string_of_int (size r Atpg.Refined);
           Printf.sprintf "%.1fx" r.E.time_ratio;
         ])
       rows);
  Printf.printf "\ntestset: minimized smaller on %d/4\n"
    (List.length
       (List.filter
          (fun (r : E.testset_row) ->
            List.exists
              (fun (_, sel) -> Array.length sel < r.E.result.Atpg.vectors_before)
              r.E.minimized)
          rows))

(* ------------------------------------------------------------------ *)

(* The full evaluation, in run order. *)
let experiments =
  [
    ("table1", fun () -> run_table1 (List.map fst (Iddq_netlist.Iscas.table1_suite ())));
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
    ("testset", run_testset);
    ("sizing", run_sizing);
    ("stability", run_stability);
    ("cooptimize", run_cooptimize);
    ("diagnose", run_diagnose);
  ]

let run_all () = List.iter (fun (_, run) -> run ()) experiments

let commands =
  experiments @ [ ("quick", fun () -> run_table1 [ "C432" ]); ("all", run_all) ]

let () =
  match List.tl (Array.to_list Sys.argv) with
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
      args
