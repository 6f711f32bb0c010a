(* The three batch workloads: the paper's Table-1 flow, the scale
   ladder and the ATPG loop.  Each item's operation records one span
   per stage around its call into a library layer; the span names are
   the per-layer metric names. *)

module Rng = Iddq_util.Rng
module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Es = Iddq_evolution.Es
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Pattern_gen = Iddq_patterns.Pattern_gen
module Fault = Iddq_defects.Fault
module Fault_sim = Iddq_defects.Fault_sim
module Coverage = Iddq_defects.Coverage
module Stuck_at = Iddq_defects.Stuck_at
module Diagnose = Iddq_diagnose.Diagnose
module Atpg = Iddq_atpg.Atpg

let span = Trace.span
let check = Measure.check

(* Each (pass, item) draws its inputs from its own stream of the seed. *)
let rng_for ~seed ~pass ~item = Rng.derive (Rng.derive (Rng.create seed) pass) item
let fresh_seed rng = Rng.int rng 0x3FFF_FFFF

(* The library's evaluation and fault-simulation counters, read by name
   through the service's JSON encoding of the counter set: the
   benchmark depends on the counters' names, not on the record that
   holds them. *)
let counters m =
  let named =
    match Iddq_server.Protocol.snapshot_json (Metrics.snapshot m) with
    | Json.Obj kvs -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
    | _ -> []
  in
  let get k = Option.value ~default:0.0 (List.assoc_opt k named) in
  let full = get "full_evals" in
  [
    ("core.evaluations", full +. get "delta_evals" +. get "eval_cache_hits");
    ("core.full_evals", full);
    ("core.delta_evals", get "delta_evals");
    ("core.eval_cache_hits", get "eval_cache_hits");
    ("core.moves", get "moves");
    ("core.gates_delta", get "gates_delta");
    ( "core.equivalent_evals",
      if full > 0.0 then full +. (get "gates_delta" /. (get "gates_full" /. full)) else 0.0 );
    ("defects.sim_blocks", get "sim_blocks");
    ("defects.sim_fault_blocks", get "sim_fault_blocks");
    ("defects.sim_faults_dropped", get "sim_faults_dropped");
    ("pool.steals", get "sim_steals");
  ]

(* Per-generation ES intervals of the traced passes, in ms. *)
let generation_ms = ref []

let on_generation () =
  let last = ref None in
  fun (_ : Es.generation_report) ->
    let t = Trace.now_ns () in
    (match !last with
    | Some t0 when !Trace.enabled ->
      generation_ms := (Int64.to_float (Int64.sub t t0) /. 1e6) :: !generation_ms
    | _ -> ());
    last := Some t

let es_params ~generations =
  { Es.default_params with Es.max_generations = generations; stall_generations = generations; domains = 2 }

(* The paper's flow after characterization: chain seeding, the ES over
   the c1-c5 cost, the final cost and one BIC sensor per module —
   [Pipeline.run_charac_result Evolution] decomposed into its calls. *)
let evolve ~metrics ~params ~flow_seed ch =
  let rng = Rng.create flow_seed in
  let starts =
    span "evolution.seeds" (fun () -> Seeds.population ~rng ~count:params.Es.mu ch)
  in
  let best, reports =
    span "evolution.es" (fun () ->
        Part_iddq.optimize ~metrics ~params ~on_generation:(on_generation ()) ~rng ~starts ())
  in
  let partition = best.Es.solution in
  let breakdown = span "core.cost" (fun () -> Cost.evaluate ~metrics partition) in
  check "ES best cost = Cost.evaluate of its partition" (breakdown.Cost.penalized = best.Es.cost);
  let sensors = span "bic.sensors" (fun () -> Partition.sensors partition) in
  ( {
      Pipeline.charac = ch;
      partition;
      breakdown;
      sensors;
      method_used = Pipeline.Evolution;
      generations = List.length reports;
    },
    starts )

let coverage m =
  if Coverage.num_faults m = 0 then 1.0
  else float_of_int (Coverage.num_detectable m) /. float_of_int (Coverage.num_faults m)

let log10_ratio a b = if a > 0.0 && b > 0.0 then log10 (a /. b) else 0.0

(* Values that average over a workload's items instead of adding up. *)
let intensive =
  [ "qor"; "iddq.coverage"; "table1.area_overhead_pct"; "diagnose.ambiguity"; "atpg.coverage";
    "defects.random_coverage" ]

(* What every batch workload reports from its samples, plus [extra]
   per-layer values. *)
let finish ?(extra = []) ~setup_s (o : Measure.outcome) =
  let s = o.Measure.samples in
  let pass_s = Measure.pass_seconds s in
  let qor = Measure.mean_over_items s (Measure.value "qor") in
  let layer = Measure.layer_values ~intensive s in
  let get k = Option.value ~default:0.0 (List.assoc_opt k layer) in
  let gens = Array.of_list !generation_ms in
  let pct p = if gens = [||] then 0.0 else Iddq_util.Stats.percentile gens p in
  let traced_s = Measure.pass_seconds ~traced:true s in
  let per_s count seconds = if seconds > 0.0 then count /. seconds else 0.0 in
  {
    Measure.setup_s;
    e2e = [ ("latency_ms", 1000.0 *. pass_s); ("qor", qor) ];
    layer =
      layer
      @ [
          ("core.evals_per_s", per_s (get "core.evaluations") (get "evolution.es_s"));
          ("atpg.targets_per_s", per_s (get "atpg.targeted") (get "atpg.generate_s"));
          ("evolution.gen_ms_p50", pct 50.0);
          ("evolution.gen_ms_tail", pct (Measure.tail_percentile (Array.length gens)));
          ("evolution.gen_samples", float_of_int (Array.length gens));
          ( "trace.overhead_pct",
            if pass_s > 0.0 then 100.0 *. ((traced_s /. pass_s) -. 1.0) else 0.0 );
          ( "trace.stage_share",
            if traced_s > 0.0 then 1.0 -. (get "trace.unattributed_s" /. traced_s) else 0.0 );
        ]
      @ extra;
    attempted = o.Measure.attempted;
    failed = o.Measure.failed;
  }

(* ------------------------------------------------------------------ *)
(* table1_flow                                                         *)
(* ------------------------------------------------------------------ *)

let table1 ~smoke ~seed ~seconds ~trace =
  let generations, n_vectors, n_defects, trials =
    if smoke then (3, 64, 200, 10) else (10, 512, 2000, 50)
  in
  let params = es_params ~generations in
  generation_ms := [];
  let setup, circuits =
    Measure.setup (fun () ->
        if smoke then [ ("C1908", Iscas.c1908_like ()) ] else Iscas.table1_suite ())
  in
  let item i (name, c) =
    let prepare ~pass =
      let rng = rng_for ~seed ~pass ~item:i in
      let vectors = Pattern_gen.random ~rng c ~count:n_vectors in
      let faults = Fault.random_population ~rng c ~count:n_defects ~defect_current:2e-6 in
      let flow_seed = fresh_seed rng and trial_rng = Rng.split rng in
      fun () ->
        let metrics = Metrics.create () in
        let ch = span "analysis.charac" (fun () -> Charac.make ~library:Library.default c) in
        let evolution, _ = evolve ~metrics ~params ~flow_seed ch in
        let sizes =
          List.map (Partition.size evolution.Pipeline.partition)
            (Partition.module_ids evolution.Pipeline.partition)
        in
        let standard =
          span "baseline.standard" (fun () ->
              Pipeline.run_charac_result
                ~config:(Pipeline.config ~reference_sizes:sizes ~metrics ())
                Pipeline.Standard ch)
        in
        let standard =
          match standard with Ok r -> r | Error e -> failwith (Pipeline.error_to_string e)
        in
        let row = Report.row_of_results ~circuit_name:name ~standard ~evolution in
        let p = evolution.Pipeline.partition in
        let m =
          span "defects.iddq_sim" (fun () ->
              Fault_sim.detection_matrix ~domains:2 ~metrics p ~vectors ~faults)
        in
        let d = span "diagnose.build" (fun () -> Diagnose.build ~domains:2 ~metrics p ~vectors ~faults) in
        let acc =
          span "diagnose.accuracy" (fun () -> Diagnose.measure_accuracy ~rng:trial_rng ~trials d)
        in
        check (name ^ ": noiseless diagnosis ranks the true class first")
          (acc.Diagnose.trials = 0 || acc.Diagnose.top1_class = 1.0);
        [
          ( "qor",
            evolution.Pipeline.breakdown.Cost.sensor_area
            /. standard.Pipeline.breakdown.Cost.sensor_area );
          ("table1.area_overhead_pct", row.Report.area_overhead_percent);
          ("iddq.coverage", coverage m);
          ("diagnose.ambiguity", (Diagnose.diagnosability d).Diagnose.expected_ambiguity);
          ("core.final_cost", evolution.Pipeline.breakdown.Cost.penalized);
          ("evolution.generations", float_of_int evolution.Pipeline.generations);
        ]
        @ counters metrics
    in
    { Measure.name; prepare }
  in
  let outcome = Measure.run ~setup ~seconds ~trace (List.mapi item circuits) in
  (* The decomposed flow must end where the one-call pipeline ends. *)
  (match circuits with
  | (name, c) :: _ ->
    let ch = Charac.make ~library:Library.default c in
    let flow_seed = fresh_seed (rng_for ~seed ~pass:0 ~item:0) in
    let decomposed, _ = evolve ~metrics:(Metrics.create ()) ~params ~flow_seed ch in
    let config = Pipeline.config ~es_params:params ~seed:flow_seed ~metrics:(Metrics.create ()) () in
    check (name ^ ": decomposed flow = Pipeline.run_charac_result Evolution")
      (match Pipeline.run_charac_result ~config Pipeline.Evolution ch with
      | Ok r -> r.Pipeline.breakdown.Cost.penalized = decomposed.Pipeline.breakdown.Cost.penalized
      | Error _ -> false)
  | [] -> ());
  finish ~setup_s:(Measure.setup_seconds setup) outcome

(* ------------------------------------------------------------------ *)
(* scale_ladder                                                        *)
(* ------------------------------------------------------------------ *)

type step = {
  label : string;  (** Metric suffix: the nominal size. *)
  gates : int;
  io : int * int;
  flow : bool;  (** Whole flow, or characterization + activation sweep only. *)
  vectors : int;
  faults : int;
}

let ladder ~smoke =
  let step label gates io flow vectors faults = { label; gates; io; flow; vectors; faults } in
  if smoke then
    [
      step "1k" 500 (16, 8) true 128 128;
      step "10k" 2_000 (32, 16) true 128 128;
      step "100k" 5_000 (64, 32) false 128 128;
      step "1m" 20_000 (64, 32) false 128 128;
    ]
  else
    [
      step "1k" 1_000 (32, 16) true 1024 1024;
      step "10k" 10_000 (128, 64) true 4096 4096;
      step "100k" 100_000 (256, 128) false 1024 2048;
      step "1m" 1_000_000 (512, 256) false 1024 2048;
    ]

let scale ~smoke ~seed ~seconds ~trace =
  let params = es_params ~generations:5 in
  generation_ms := [];
  let steps = ladder ~smoke in
  let generate_s = ref [] in
  let setup, inputs =
    Measure.setup (fun () ->
        let generating = ref 0.0 in
        let inputs =
          List.mapi
            (fun i st ->
              let rng = Rng.derive (Rng.create seed) i in
              let t0 = Trace.now_ns () in
              let num_inputs, num_outputs = st.io in
              let c =
                Generator.layered_dag ~rng ~name:("dag" ^ st.label) ~num_inputs ~num_outputs
                  ~num_gates:st.gates ~depth:60 ()
              in
              generating := !generating +. Trace.seconds_since t0;
              let vectors = Pattern_gen.random ~rng c ~count:st.vectors in
              let faults = Fault.random_population ~rng c ~count:st.faults ~defect_current:2e-6 in
              (st, c, vectors, faults))
            steps
        in
        generate_s := !generating :: !generate_s;
        inputs)
  in
  let item i (st, c, vectors, faults) =
    let prepare ~pass =
      let flow_seed = fresh_seed (rng_for ~seed ~pass ~item:i) in
      fun () ->
        let metrics = Metrics.create () in
        let ch = span "analysis.charac" (fun () -> Charac.make ~library:Library.default c) in
        check ("dag" ^ st.label ^ ": characterized every gate")
          (Charac.num_gates ch = st.gates);
        let n_rows m = Array.length m.Fault_sim.rows in
        if st.flow then begin
          let evolution, starts = evolve ~metrics ~params ~flow_seed ch in
          let start_cost =
            span "core.cost" (fun () ->
                List.fold_left
                  (fun acc p -> Float.min acc (Cost.evaluate ~metrics p).Cost.penalized)
                  infinity starts)
          in
          let m =
            span "defects.iddq_sim" (fun () ->
                Fault_sim.detection_matrix ~domains:2 ~metrics evolution.Pipeline.partition
                  ~vectors ~faults)
          in
          check ("dag" ^ st.label ^ ": one matrix row per defect") (n_rows m = st.faults);
          let final = evolution.Pipeline.breakdown.Cost.penalized in
          [
            (* what the ES gained on its seeded start population *)
            ("qor", final /. start_cost);
            ("core.final_cost", final);
            ("iddq.coverage", coverage m);
            ("evolution.generations", float_of_int evolution.Pipeline.generations);
          ]
          @ counters metrics
        end
        else begin
          let m =
            span "defects.iddq_sim" (fun () ->
                Fault_sim.detection_matrix_with ~domains:2 ~metrics c
                  ~measurable:(fun _ -> true) ~vectors ~faults)
          in
          check ("dag" ^ st.label ^ ": one matrix row per defect") (n_rows m = st.faults);
          counters metrics
        end
    in
    { Measure.name = "dag" ^ st.label; prepare }
  in
  let outcome = Measure.run ~setup ~seconds ~trace (List.mapi item inputs) in
  (* A set-up here takes most of a second, too long to repeat between
     items, so a second round follows the run, once its inputs are
     garbage. *)
  Measure.repeat_setup setup;
  let samples = outcome.Measure.samples in
  let per_step =
    List.concat
      (List.mapi
         (fun i st ->
           let of_step k =
             Measure.sum_of_medians ~traced:true
               (List.filter (fun s -> s.Measure.item = i) samples)
               (fun s -> Some (Option.value ~default:0.0 (Measure.value k s)))
           in
           let keys =
             [ "analysis.charac_s"; "defects.iddq_sim_s" ]
             @ if st.flow then [ "evolution.seeds_s"; "evolution.es_s" ] else []
           in
           List.map (fun k -> (k ^ "." ^ st.label, of_step k)) keys)
         steps)
  in
  let at k = Option.value ~default:0.0 (List.assoc_opt k per_step) in
  (* growth exponent over a decade of gates: 1 = linear *)
  let growth name stage small large =
    ("growth." ^ name, log10_ratio (at (stage ^ "_s." ^ large)) (at (stage ^ "_s." ^ small)))
  in
  finish ~setup_s:(Measure.setup_seconds setup) outcome
    ~extra:
      (per_step
      @ [
          ("netlist.generate_s", Measure.median !generate_s);
          growth "charac" "analysis.charac" "100k" "1m";
          growth "iddq_sim" "defects.iddq_sim" "100k" "1m";
          growth "seeds" "evolution.seeds" "1k" "10k";
          growth "es" "evolution.es" "1k" "10k";
        ])

(* ------------------------------------------------------------------ *)
(* atpg_testset                                                        *)
(* ------------------------------------------------------------------ *)

let atpg ~smoke ~seed ~seconds ~trace =
  let random_vectors = 32 and max_backtracks = 16 in
  let setup, circuits =
    Measure.setup (fun () ->
        List.map
          (fun (name, c) -> (name, c, Stuck_at.collapsed_fault_list c))
          (if smoke then [ ("C17", Iscas.c17 ()); ("C432", Iscas.c432_like ()) ]
           else
             [
               ("C432", Iscas.c432_like ());
               ("C499", Iscas.c499_like ());
               ("C880", Iscas.c880_like ());
               ("C1355", Iscas.c1355_like ());
             ]))
  in
  let item i (name, c, faults) =
    let prepare ~pass =
      let seed = fresh_seed (rng_for ~seed ~pass ~item:i) in
      (* the facade draws its random vectors first from [Rng.create
         seed]: this is the same set, the random-only baseline *)
      let initial = Pattern_gen.random ~rng:(Rng.create seed) c ~count:random_vectors in
      let config =
        Atpg.config ~max_backtracks ~seed ~random_vectors ~strategy:Atpg.Refined ()
      in
      fun () ->
        let metrics = Metrics.create () in
        let random_only =
          span "defects.stuck_at" (fun () ->
              Stuck_at.fault_simulate ~metrics c ~vectors:initial ~faults)
        in
        let r =
          match span "atpg.generate" (fun () -> Atpg.run_result ~config c) with
          | Ok r -> r
          | Error e -> failwith (Atpg.error_to_string e)
        in
        let minimize strategy =
          match Atpg.minimize_result ~strategy r.Atpg.matrix with
          | Ok sel -> sel
          | Error e -> failwith (Atpg.error_to_string e)
        in
        let greedy, essential =
          span "atpg.minimize" (fun () -> (minimize Atpg.Greedy, minimize Atpg.Essential))
        in
        let full = coverage r.Atpg.matrix in
        check (name ^ ": PODEM top-up keeps the random-only coverage")
          (r.Atpg.coverage >= random_only.Stuck_at.coverage -. 1e-9);
        List.iter
          (fun (what, sel) ->
            check
              (Printf.sprintf "%s: %s set keeps the full set's coverage" name what)
              (Float.abs (Coverage.coverage_of_selection r.Atpg.matrix sel -. full) <= 1e-9))
          [ ("refined", r.Atpg.selected); ("greedy", greedy); ("essential", essential) ];
        check (name ^ ": refined set no larger than greedy")
          (Array.length r.Atpg.selected <= Array.length greedy);
        let st = r.Atpg.stats in
        let detected = r.Atpg.coverage *. float_of_int (List.length faults) in
        [
          ("qor", float_of_int (Array.length r.Atpg.selected) /. Float.max 1.0 detected);
          ("atpg.targeted", float_of_int st.Iddq_atpg.Testset.targeted);
          ("atpg.generated", float_of_int st.Iddq_atpg.Testset.generated);
          ("atpg.aborted", float_of_int st.Iddq_atpg.Testset.aborted);
          ("atpg.untestable", float_of_int st.Iddq_atpg.Testset.untestable);
          ("atpg.vectors_full", float_of_int r.Atpg.vectors_before);
          ("atpg.vectors_refined", float_of_int (Array.length r.Atpg.selected));
          ("atpg.vectors_greedy", float_of_int (Array.length greedy));
          ("atpg.vectors_essential", float_of_int (Array.length essential));
          ("atpg.coverage", r.Atpg.coverage);
          ("defects.random_coverage", random_only.Stuck_at.coverage);
        ]
        @ counters metrics
    in
    { Measure.name; prepare }
  in
  let outcome = Measure.run ~setup ~seconds ~trace (List.mapi item circuits) in
  finish ~setup_s:(Measure.setup_seconds setup) outcome
