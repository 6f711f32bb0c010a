(* The paper's evaluation as values: each experiment is one function
   that returns its rows, with no printing and no file I/O.
   bench/main.exe prints them; test_experiments, and the "ISCAS85 grid
   gate" cases of test_diagnose and test_testset, bound them. *)

module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Circuit = Iddq_netlist.Circuit
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Technology = Iddq_celllib.Technology
module Charac = Iddq_analysis.Charac
module Activity = Iddq_analysis.Activity
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Sensor = Iddq_bic.Sensor
module Es = Iddq_evolution.Es
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Standard = Iddq_baseline.Standard
module Pattern_gen = Iddq_patterns.Pattern_gen
module Stuck_at = Iddq_defects.Stuck_at
module Bridge_logic = Iddq_defects.Bridge_logic
module Drive_select = Iddq_resynth.Drive_select
module Diagnose = Iddq_diagnose.Diagnose
module Atpg = Iddq_atpg.Atpg
module Pipeline = Iddq.Pipeline

let bench_es_params =
  { Es.default_params with Es.max_generations = 250; stall_generations = 50 }

let bench_config = Pipeline.config ~es_params:bench_es_params ()

(* The experiments run fixed inputs, so a pipeline error is a bug. *)
let ok_or_fail = function
  | Ok r -> r
  | Error e -> failwith (Pipeline.error_to_string e)

(* A built-in stand-in by its Table-1 name ("C432", "C1908", ...). *)
let circuit name = Option.get (Iscas.by_name name)

(* The evolution run of each stand-in under [bench_config], made at
   most once per process: every experiment that partitions a stand-in
   with the bench configuration reads this one run. *)
let evolution_runs =
  List.map
    (fun name ->
      ( name,
        lazy
          (ok_or_fail
             (Pipeline.run_result ~config:bench_config Pipeline.Evolution
                (circuit name))) ))
    Iscas.names

let evolved name = Lazy.force (List.assoc name evolution_runs)

(* [Pipeline.compare_methods_result ~config:bench_config] on a
   stand-in, its evolution run read from [evolved]: as there, the
   other methods take the evolution's module sizes as reference. *)
let compare_methods name methods =
  let evo = evolved name in
  let p = evo.Pipeline.partition in
  let config =
    Pipeline.config ~es_params:bench_es_params
      ~reference_sizes:(List.map (Partition.size p) (Partition.module_ids p))
      ()
  in
  List.map
    (fun m ->
      ( m,
        if m = Pipeline.Evolution then evo
        else ok_or_fail (Pipeline.run_charac_result ~config m evo.Pipeline.charac)
      ))
    methods

(* The paper's Table 1 numbers: circuit, module count, area overhead
   of standard over evolution in percent.  Delay and test-time rows are
   only partially legible in the source scan; the legible values are
   ~5.9e-2 % for both methods. *)
let paper_table1 =
  [
    ("C1908", 2, 30.6);
    ("C2670", 3, 14.5);
    ("C3540", 4, 22.9);
    ("C5315", 6, 25.3);
    ("C6288", 5, 25.9);
    ("C7552", 6, 19.7);
  ]

(* Table 1: standard vs evolution on one stand-in. *)
let table1_row name =
  match compare_methods name [ Pipeline.Evolution; Pipeline.Standard ] with
  | [ (_, evolution); (_, standard) ] ->
    Iddq.Report.row_of_results ~circuit_name:name ~standard ~evolution
  | _ -> assert false

(* Figure 2: row- vs column-shaped groups of a 2-D cell array. *)
type fig2_row = {
  rows : int;
  cols : int;
  row_worst : float;  (** worst module i_DD,max, row-shaped groups (A) *)
  row_area : float;
  col_worst : float;
  col_area : float;
}

let fig2 () =
  List.map
    (fun (rows, cols) ->
      let circuit = Generator.cell_array ~rows ~cols in
      let ch = Charac.make ~library:Library.default circuit in
      let shaped f =
        let a = Array.make (Circuit.num_gates circuit) 0 in
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            a.(Generator.cell_array_gate ~rows ~cols ~r ~c) <- f r c
          done
        done;
        let p = Partition.create ch ~assignment:a in
        ( List.fold_left
            (fun acc m -> Stdlib.max acc (Partition.max_transient_current p m))
            0.0 (Partition.module_ids p),
          List.fold_left
            (fun acc (_, s) -> acc +. s.Sensor.area)
            0.0 (Partition.sensors p) )
      in
      let row_worst, row_area = shaped (fun r _ -> r) in
      let col_worst, col_area = shaped (fun _ c -> c) in
      { rows; cols; row_worst; row_area; col_worst; col_area })
    [ (3, 3); (6, 6); (9, 12) ]

(* Figures 3-5: the evolution on C17, with the paper's grouping
   {(10,16,22),(11,19,23)} costed for reference. *)
type c17_result = {
  trace : Es.generation_report list;
  cost : float;  (** the final partition's *)
  modules : (int * string list) list;  (** module id, gate names *)
  paper_cost : float;  (** the paper's grouping under the same cost *)
}

(* Threshold scaled so discriminability caps modules at 3 gates,
   mirroring the paper's illustration. *)
let c17_library () =
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

let c17 () =
  let circuit = Iscas.c17 () in
  let ch = Charac.make ~library:(c17_library ()) circuit in
  let rng = Rng.create 42 in
  let starts = Seeds.population ~rng ~module_size:3 ~count:4 ch in
  let params =
    { Es.default_params with Es.max_generations = 120; stall_generations = 30 }
  in
  let best, trace =
    Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng ~starts ()
  in
  let name g = Circuit.node_name circuit (Circuit.node_of_gate circuit g) in
  let p = best.Es.solution in
  let paper =
    Array.init (Circuit.num_gates circuit) (fun g ->
        if List.mem (name g) [ "10"; "16"; "22" ] then 0 else 1)
  in
  {
    trace;
    cost = best.Es.cost;
    modules =
      List.map
        (fun m -> (m, List.map name (Array.to_list (Partition.members p m))))
        (Partition.module_ids p);
    paper_cost =
      (Cost.evaluate (Partition.create ch ~assignment:paper)).Cost.penalized;
  }

(* Figure 1: defects injected into the evolved C432 partition. *)
type fig1_result = {
  modules : int;
  defects : int;
  vectors : int;
  sim : Iddq_defects.Iddq_sim.result;
}

let fig1 () =
  let result = evolved "C432" in
  let circuit = Charac.circuit result.Pipeline.charac in
  let rng = Rng.create 7 in
  let faults =
    Iddq_defects.Fault.random_population ~rng circuit ~count:150
      ~defect_current:2.0e-6
  in
  let vectors = Pattern_gen.random ~rng circuit ~count:64 in
  {
    modules = Partition.num_modules result.Pipeline.partition;
    defects = List.length faults;
    vectors = Array.length vectors;
    sim =
      Iddq_defects.Iddq_sim.run_partitioned result.Pipeline.partition ~vectors
        ~faults;
  }

(* Ablation A: the five partitioners on the C1908 stand-in. *)
let ablation_opt () =
  compare_methods "C1908"
    [
      Pipeline.Evolution; Pipeline.Standard; Pipeline.Refined_standard;
      Pipeline.Annealing; Pipeline.Random;
    ]

(* Ablation B: cost-weight sensitivity on the C1908 stand-in.  The
   paper mix is [bench_config]'s, so its row is [evolved "C1908"]; the
   other mixes run by label. *)
let weight_mixes =
  [
    ("equal (1,1,1,1,1)", Cost.equal_weights);
    ("area-only", { Cost.equal_weights with Cost.w_area = 100.0; w_delay = 0.0 });
    ("delay-heavy", { Cost.paper_weights with Cost.w_delay = 1.0e7 });
    ("few-modules", { Cost.paper_weights with Cost.w_module_count = 1000.0 });
  ]

let weight_run label =
  let config =
    Pipeline.config ~es_params:bench_es_params
      ~weights:(List.assoc label weight_mixes) ()
  in
  ok_or_fail (Pipeline.run_result ~config Pipeline.Evolution (circuit "C1908"))

let ablation_weights () =
  ("paper (9,1e5,1,1,10)", evolved "C1908")
  :: List.map (fun (label, _) -> (label, weight_run label)) weight_mixes

(* Ablation C: ES control parameters on the C1908 stand-in, each
   setting run by label. *)
let es_settings =
  let base = { bench_es_params with Es.max_generations = 150 } in
  [
    ("mu=4 lambda=7 chi=2 (default)", base);
    ("mu=1 lambda=7 chi=2", { base with Es.mu = 1 });
    ("mu=8 lambda=14 chi=4", { base with Es.mu = 8; lambda = 14; chi = 4 });
    ("no Monte-Carlo (chi=0)", { base with Es.chi = 0 });
    ("only Monte-Carlo (lambda=0)", { base with Es.lambda = 0; chi = 9 });
    ("short lifetime (omega=2)", { base with Es.omega = 2 });
  ]

let es_run label =
  let config = Pipeline.config ~es_params:(List.assoc label es_settings) () in
  ok_or_fail (Pipeline.run_result ~config Pipeline.Evolution (circuit "C1908"))

let ablation_es () = List.map (fun (label, _) -> (label, es_run label)) es_settings

(* Ablation D: drive selection after partitioning (paper §6). *)
let ablation_resynth () =
  List.map
    (fun name ->
      ( name,
        Drive_select.optimize ~max_swaps:128 ~metrics:(Metrics.create ())
          (evolved name).Pipeline.partition ))
    [ "C432"; "C1908" ]

(* Validation: the pessimistic i_DD,max estimate of each evolved
   module against its activity under 128 random vectors. *)
type validation_row = {
  circuit : string;
  module_ : int;
  estimated : float;
  realized : float;
  pessimism : float;
}

let validation () =
  List.concat_map
    (fun name ->
      let r = evolved name in
      let ch = r.Pipeline.charac in
      let rng = Rng.create 11 in
      let vectors = Pattern_gen.random ~rng (Charac.circuit ch) ~count:128 in
      List.map
        (fun m ->
          let gates = Partition.members r.Pipeline.partition m in
          let act = Activity.measure ch ~gates ~vectors in
          {
            circuit = name;
            module_ = m;
            estimated = Iddq_analysis.Switching.max_transient_current ch gates;
            realized = act.Activity.realized_max;
            pessimism = Activity.pessimism_ratio ch ~gates act;
          })
        (Partition.module_ids r.Pipeline.partition))
    [ "C432"; "C1908" ]

(* Granularity trade-off (paper §1): uniform K-module partitions of the
   C3540 stand-in, with the worst sensor settling time of each. *)
let tradeoff () =
  let ch = Charac.make ~library:Library.default (circuit "C3540") in
  let tech = Charac.technology ch in
  List.map
    (fun k ->
      let p = Standard.partition_uniform ch ~num_modules:k in
      let settle =
        List.fold_left
          (fun acc (_, s) -> Stdlib.max acc (Iddq_bic.Test_time.settling tech s))
          0.0 (Partition.sensors p)
      in
      (k, Cost.evaluate p, settle))
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* Sensing-device variants (paper §1) on the evolved C1908 partition. *)
let variants () =
  let base = evolved "C1908" in
  let assignment = Partition.assignment base.Pipeline.partition in
  List.map
    (fun variant ->
      let tech =
        Iddq_bic.Variants.technology_for (Library.technology Library.default)
          variant
      in
      let library =
        match Library.with_technology Library.default tech with
        | Ok l -> l
        | Error e -> failwith e
      in
      let ch = Charac.make ~library (Charac.circuit base.Pipeline.charac) in
      (variant, Cost.evaluate (Partition.create ch ~assignment)))
    Iddq_bic.Variants.all

(* IDDQ vs logic test (paper §1): stuck-at coverage of 64 random
   vectors, and 150 sampled non-feedback bridges (wired-AND) by which
   test sees them. *)
type logic_vs_iddq_row = {
  stand_in : string;
  stuck_at : Stuck_at.sim_result;
  vectors : int;
  bridges : int;
  logic_detected : int;
  iddq_detected : int;
  both : int;
  iddq_only : int;
}

let logic_vs_iddq () =
  List.map
    (fun name ->
      let circuit = circuit name in
      let rng = Rng.create 3 in
      let vectors = Pattern_gen.random ~rng circuit ~count:64 in
      let stuck_at =
        Stuck_at.fault_simulate circuit ~vectors
          ~faults:(Stuck_at.collapsed_fault_list circuit)
      in
      let n = Circuit.num_gates circuit in
      let bridges = ref [] in
      while List.length !bridges < 150 do
        let a = Circuit.node_of_gate circuit (Rng.int rng n) in
        let b = Circuit.node_of_gate circuit (Rng.int rng n) in
        if a <> b && not (Bridge_logic.is_feedback circuit a b) then
          bridges := (a, b) :: !bridges
      done;
      let seen =
        List.map
          (fun (a, b) ->
            ( Array.exists (Bridge_logic.logic_detects circuit ~a ~b) vectors,
              Array.exists (Bridge_logic.iddq_detects circuit ~a ~b) vectors ))
          !bridges
      in
      let count f = List.length (List.filter f seen) in
      {
        stand_in = name; stuck_at; vectors = Array.length vectors;
        bridges = List.length seen; logic_detected = count fst;
        iddq_detected = count snd; both = count (fun (l, i) -> l && i);
        iddq_only = count (fun (l, i) -> i && not l);
      })
    [ "C432"; "C1908" ]

(* Sizing policy: the evolved C1908 modules sized from three current
   bases, and how many would bounce the rail past its budget under the
   activity of 256 random vectors. *)
type sizing_row = {
  basis : string;
  area : float;
  overshoots : int;
  modules : int;
}

let sizing () =
  let r = evolved "C1908" in
  let ch = r.Pipeline.charac in
  let tech = Charac.technology ch in
  let p = r.Pipeline.partition in
  let rng = Rng.create 31 in
  let vectors = Pattern_gen.random ~rng (Charac.circuit ch) ~count:256 in
  let modules = Partition.module_ids p in
  let realized =
    let activity =
      List.map
        (fun m -> (m, Activity.measure ch ~gates:(Partition.members p m) ~vectors))
        modules
    in
    fun m -> (List.assoc m activity).Activity.realized_max
  in
  let row basis current =
    {
      basis;
      area =
        List.fold_left
          (fun acc m ->
            acc
            +. (Sensor.size ~technology:tech ~peak_current:(current m)
                  ~module_rail_capacitance:(Partition.rail_capacitance p m))
                 .Sensor.area)
          0.0 modules;
      (* a sensor sized for [design] lets [realized] bounce the rail by
         budget x realized / design *)
      overshoots =
        List.length
          (List.filter
             (fun m ->
               let design = current m in
               design > 0.0
               && tech.Technology.rail_budget /. design *. realized m
                  > tech.Technology.rail_budget +. 1e-12)
             modules);
      modules = List.length modules;
    }
  in
  [
    row "pessimistic i_DD,max (paper)" (Partition.max_transient_current p);
    row "probabilistic expectation" (fun m ->
        Iddq_analysis.Probability.expected_max_current ch (Partition.members p m));
    row "realized max (the same 256 vectors)" realized;
  ]

(* Seed stability: evolution's sensor area and standard's overhead
   over it, across five optimizer seeds on C1908. *)
let stability () =
  let circuit = circuit "C1908" in
  let params =
    { bench_es_params with Es.max_generations = 120; stall_generations = 40 }
  in
  List.map
    (fun seed ->
      let config = Pipeline.config ~seed ~es_params:params () in
      match
        ok_or_fail
          (Pipeline.compare_methods_result ~config circuit
             [ Pipeline.Evolution; Pipeline.Standard ])
      with
      | [ (_, evo); (_, std) ] ->
        let ae = evo.Pipeline.breakdown.Cost.sensor_area in
        (ae, 100.0 *. (std.Pipeline.breakdown.Cost.sensor_area -. ae) /. ae)
      | _ -> assert false)
    [ 1; 7; 42; 101; 9999 ]

(* Co-optimization: ES, then two rounds of drive selection and
   re-partitioning; each row is (label, breakdown, low-drive gates). *)
let cooptimize () =
  let rng = Rng.create 42 in
  let params =
    { bench_es_params with Es.max_generations = 120; stall_generations = 40 }
  in
  let ch0 = Charac.make ~library:Library.default (circuit "C1908") in
  let starts = Seeds.population ~rng ~count:4 ch0 in
  let best, _ =
    Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng ~starts ()
  in
  let p = ref best.Es.solution in
  let rows = ref [] in
  let record label =
    let ch = Partition.charac !p in
    let low_power = ref 0 in
    for g = 0 to Charac.num_gates ch - 1 do
      if Charac.is_low_power ch g then incr low_power
    done;
    rows := (label, Cost.evaluate !p, !low_power) :: !rows
  in
  record "0: partition (ES)";
  for round = 1 to 2 do
    p :=
      (Drive_select.optimize ~max_swaps:96 ~metrics:(Metrics.create ()) !p)
        .Drive_select.partition;
    record (Printf.sprintf "%d: + drive selection" round);
    (* re-partition the re-characterized netlist, seeded from the
       current grouping *)
    let ch = Partition.charac !p in
    let seed_partition = Partition.create ch ~assignment:(Partition.assignment !p) in
    let fresh = Seeds.population ~rng ~count:3 ch in
    let best, _ =
      Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng
        ~starts:(seed_partition :: fresh) ()
    in
    p := best.Es.solution;
    record (Printf.sprintf "%d: + re-partition" round)
  done;
  List.rev !rows

(* The diagnosis grid (DESIGN.md §11): the C432/C880/C1908/C3540
   stand-ins x uniform 2/4/8/16-module partitions, 200 defects and 128
   vectors drawn from one rng seeded 42 per cell, and 40 localization
   trials of each kind: noiseless, and with every pass/fail cell
   flipped at 2%.  Computed once per process. *)
type diagnose_row = {
  circuit : string;
  modules : int;
  summary : Diagnose.summary;
  exact : Diagnose.accuracy;
  noisy : Diagnose.accuracy;
}

let grid_circuits = [ "C432"; "C880"; "C1908"; "C3540" ]

let diagnose_grid =
  let grid =
    lazy
      (List.concat_map
         (fun name ->
           let circuit = circuit name in
           let ch = Charac.make ~library:Library.default circuit in
           List.map
             (fun k ->
               let p = Standard.partition_uniform ch ~num_modules:k in
               let rng = Rng.create 42 in
               let faults =
                 Iddq_defects.Fault.random_population ~rng circuit ~count:200
                   ~defect_current:2e-6
               in
               let vectors = Pattern_gen.random ~rng circuit ~count:128 in
               let d = Diagnose.build p ~vectors ~faults in
               let summary = Diagnose.diagnosability d in
               let exact = Diagnose.measure_accuracy ~rng ~top_k:3 ~trials:40 d in
               let noisy =
                 Diagnose.measure_accuracy ~rng ~epsilon:0.02 ~top_k:3 ~trials:40 d
               in
               { circuit = name; modules = Diagnose.num_modules d; summary; exact; noisy })
             [ 2; 4; 8; 16 ])
         grid_circuits)
  in
  fun () -> Lazy.force grid

(* The noisy top-k module accuracy over the whole grid, as a fraction
   of all its trials. *)
let noisy_topk_rate rows =
  let hits, trials =
    List.fold_left
      (fun (h, t) r ->
        let a = r.noisy in
        ( h + int_of_float (Float.round (a.Diagnose.topk_module *. float_of_int a.Diagnose.trials)),
          t + a.Diagnose.trials ))
      (0, 0) rows
  in
  if trials = 0 then 0.0 else float_of_int hits /. float_of_int trials

(* The ATPG test-set grid: random vectors plus PODEM top-up on the
   same four stand-ins, each set minimized by every strategy, and the
   test time of the full set over the refined one on the circuit's
   standard partition. *)
let testset_config =
  Atpg.config ~max_backtracks:64 ~seed:11 ~random_vectors:32
    ~strategy:Atpg.Greedy ()

type testset_row = {
  circuit : string;
  random_only : Stuck_at.sim_result;
      (** the facade's own random start: it seeds [Rng.create 11] and
          draws its 32 random vectors first *)
  result : Atpg.set_result;
  minimized : (Atpg.strategy * int array) list;
  time_ratio : float;
}

let testset_grid () =
  List.map
    (fun name ->
      let circuit = circuit name in
      let initial =
        Pattern_gen.random
          ~rng:(Rng.create testset_config.Atpg.seed)
          circuit ~count:testset_config.Atpg.random_vectors
      in
      let random_only =
        Stuck_at.fault_simulate circuit ~vectors:initial
          ~faults:(Stuck_at.collapsed_fault_list circuit)
      in
      let get = function
        | Ok x -> x
        | Error e -> failwith (Atpg.error_to_string e)
      in
      let result = get (Atpg.run_result ~config:testset_config circuit) in
      let minimized =
        List.map
          (fun s -> (s, get (Atpg.minimize_result ~strategy:s result.Atpg.matrix)))
          Iddq_atpg.Testset.strategies
      in
      (* the c4 wiring: vectors saved, priced on this circuit's own
         synthesized design *)
      let time_ratio =
        match Pipeline.run_result Pipeline.Standard circuit with
        | Error _ -> 1.0
        | Ok p ->
          let after =
            Pipeline.test_time p
              ~vectors:(Array.length (List.assoc Atpg.Refined minimized))
          in
          if after > 0.0 then
            Pipeline.test_time p ~vectors:result.Atpg.vectors_before /. after
          else 1.0
      in
      { circuit = name; random_only; result; minimized; time_ratio })
    grid_circuits
