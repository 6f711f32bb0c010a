(* Command-line driver: partition a circuit for IDDQ testability and
   report the resulting BIC sensor plan.

     iddq_synth partition --circuit C1908 --method evolution
     iddq_synth partition --bench path/to/netlist.bench --method standard
     iddq_synth compare --circuit C3540
     iddq_synth stats --circuit C7552
     iddq_synth generate --gates 500 --depth 20 --out my.bench *)

module Circuit = Iddq_netlist.Circuit
module Bench_io = Iddq_netlist.Bench_io
module Io_error = Iddq_util.Io_error
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Partition = Iddq_core.Partition
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Diagnose = Iddq_diagnose.Diagnose

open Cmdliner

let load_circuit ~circuit ~bench =
  match circuit, bench with
  | Some name, None -> begin
    match Iscas.by_name name with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf "unknown circuit %S (try %s)" name
           (String.concat ", " Iscas.names))
  end
  | None, Some path ->
    Result.map_error Io_error.to_string (Bench_io.parse_file path)
  | Some _, Some _ -> Error "give either --circuit or --bench, not both"
  | None, None -> Error "a circuit is required: --circuit NAME or --bench FILE"

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME"
        ~doc:"Built-in circuit: C17, C432, or the Table-1 suite C1908..C7552.")

let bench_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench" ] ~docv:"FILE" ~doc:"ISCAS85 .bench netlist to load.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let module_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "module-size" ] ~docv:"N"
        ~doc:"Target start-module size (default: estimated from the discriminability budget).")

let method_arg =
  let parse s =
    match Pipeline.method_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  let print fmt m = Format.pp_print_string fmt (Pipeline.method_to_string m) in
  Arg.(
    value
    & opt (conv (parse, print)) Pipeline.Evolution
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Partitioning method: evolution, standard, random, annealing, refined-standard.")

let library_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "library" ] ~docv:"FILE"
        ~doc:"Cell-library file (INI format, see Library_io); default: the               built-in 1um CMOS characterization.")

let load_library = function
  | None -> Iddq_celllib.Library.default
  | Some path -> begin
    match Iddq_celllib.Library_io.parse_file path with
    | Ok lib -> lib
    | Error e ->
      Format.eprintf "error loading library: %s@." (Io_error.to_string e);
      exit 1
  end

let config ~seed ~module_size ~library =
  Pipeline.config ~seed ?module_size ~library:(load_library library) ()

let exit_err msg =
  Format.eprintf "error: %s@." msg;
  exit 1

let ok_or_exit = function
  | Ok r -> r
  | Error e -> exit_err (Pipeline.error_to_string e)

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write the partitioned netlist as Graphviz DOT (modules as clusters).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-partition" ] ~docv:"FILE"
        ~doc:"Write the resulting partition (net names per module).")

let resynth_arg =
  Arg.(
    value & flag
    & info [ "resynth" ]
        ~doc:"After partitioning, run cost-aware drive selection: re-map \
              peak-defining gates with timing slack to low-drive cells.")

let partition_cmd =
  let run circuit bench method_ seed module_size library resynth dot save =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c ->
      Format.printf "circuit %s: %a@.@." (Circuit.name c) Circuit.pp_stats
        (Circuit.stats c);
      let result =
        ok_or_exit
          (Pipeline.run_result ~config:(config ~seed ~module_size ~library)
             method_ c)
      in
      Format.printf "%a" Report.pp_pipeline result;
      let final_partition =
        if resynth then begin
          let r =
            Iddq_resynth.Drive_select.optimize
              ~metrics:(Iddq_util.Metrics.create ())
              result.Pipeline.partition
          in
          let before = r.Iddq_resynth.Drive_select.before in
          let after = r.Iddq_resynth.Drive_select.after in
          Format.printf
            "@.drive selection: %d gates re-mapped to low drive;@ sensor area \
             %.3e -> %.3e (%.1f%% saved), nominal delay unchanged@."
            (List.length r.Iddq_resynth.Drive_select.swaps)
            before.Iddq_core.Cost.sensor_area after.Iddq_core.Cost.sensor_area
            (100.0
            *. (1.0
               -. after.Iddq_core.Cost.sensor_area
                  /. before.Iddq_core.Cost.sensor_area));
          r.Iddq_resynth.Drive_select.partition
        end
        else result.Pipeline.partition
      in
      let write_or_die what = function
        | Ok () -> ()
        | Error e ->
          exit_err (Printf.sprintf "writing %s: %s" what (Io_error.to_string e))
      in
      Option.iter
        (fun path ->
          write_or_die "DOT"
            (Iddq_netlist.Dot.write_file
               ~module_of_gate:(Partition.module_of_gate final_partition)
               path c);
          Format.printf "wrote DOT to %s@." path)
        dot;
      Option.iter
        (fun path ->
          write_or_die "partition"
            (Iddq_core.Partition_io.write_file path final_partition);
          Format.printf "wrote partition to %s@." path)
        save
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Partition a circuit and size its BIC sensors.")
    Term.(
      const run $ circuit_arg $ bench_arg $ method_arg $ seed_arg
      $ module_size_arg $ library_arg $ resynth_arg $ dot_arg $ save_arg)

let defects_arg =
  Arg.(value & opt int 200 & info [ "defects" ] ~docv:"N" ~doc:"Injected defect count.")

let vectors_arg =
  Arg.(value & opt int 64 & info [ "vectors" ] ~docv:"N" ~doc:"Random test vectors.")

let current_arg =
  Arg.(
    value & opt float 2.0
    & info [ "defect-current" ] ~docv:"UA" ~doc:"Defect current in microamperes.")

let simulate_cmd =
  let run circuit bench seed module_size library defects vectors current =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c ->
      let result =
        ok_or_exit
          (Pipeline.run_result
             ~config:(config ~seed ~module_size ~library)
             Pipeline.Evolution c)
      in
      let rng = Iddq_util.Rng.create (seed + 1) in
      let faults =
        Iddq_defects.Fault.random_population ~rng c ~count:defects
          ~defect_current:(current *. 1.0e-6)
      in
      let vs = Iddq_patterns.Pattern_gen.random ~rng c ~count:vectors in
      let part =
        Iddq_defects.Iddq_sim.run_partitioned result.Pipeline.partition
          ~vectors:vs ~faults
      in
      let single =
        Iddq_defects.Iddq_sim.run_single_sensor result.Pipeline.charac
          ~vectors:vs ~faults
      in
      Format.printf
        "%s: %d modules, %d defects at %.1f uA, %d vectors@.  partitioned \
         BIC: coverage %5.1f%%  test time %.3e s@.  single sensor: coverage \
         %5.1f%%  test time %.3e s@."
        (Circuit.name c)
        (Partition.num_modules result.Pipeline.partition)
        defects current vectors
        (100.0 *. part.Iddq_defects.Iddq_sim.coverage)
        part.Iddq_defects.Iddq_sim.test_time
        (100.0 *. single.Iddq_defects.Iddq_sim.coverage)
        single.Iddq_defects.Iddq_sim.test_time
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Inject IDDQ defects and compare partitioned vs single-sensor coverage.")
    Term.(
      const run $ circuit_arg $ bench_arg $ seed_arg $ module_size_arg
      $ library_arg $ defects_arg $ vectors_arg $ current_arg)

let diagnose_cmd =
  let epsilon =
    Arg.(
      value & opt float 0.0
      & info [ "epsilon" ] ~docv:"P"
          ~doc:"Per-measurement pass/fail flip probability in [0, 0.5); 0 = \
                noiseless exact matching.")
  in
  let trials =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo localization trials.")
  in
  let top_k =
    Arg.(
      value & opt int 3
      & info [ "top-k" ] ~docv:"K" ~doc:"K for the top-K module accuracy.")
  in
  let run circuit bench method_ seed module_size library defects vectors current
      epsilon trials top_k =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c ->
      if not (epsilon >= 0.0 && epsilon < 0.5) then
        exit_err "--epsilon must lie in [0, 0.5)";
      if not (Float.is_finite current && current > 0.0) then
        exit_err "--defect-current must be finite and positive";
      if vectors < 1 || defects < 1 || trials < 1 || top_k < 1 then
        exit_err "--vectors, --defects, --trials and --top-k must be positive";
      let result =
        ok_or_exit
          (Pipeline.run_result ~config:(config ~seed ~module_size ~library)
             method_ c)
      in
      let rng = Iddq_util.Rng.create (seed + 1) in
      let faults =
        Iddq_defects.Fault.random_population ~rng c ~count:defects
          ~defect_current:(current *. 1.0e-6)
      in
      let vs = Iddq_patterns.Pattern_gen.random ~rng c ~count:vectors in
      let d = Diagnose.build result.Pipeline.partition ~vectors:vs ~faults in
      let module_id f = (Diagnose.module_ids d).(Diagnose.fault_module d f) in
      let s = Diagnose.diagnosability d in
      Format.printf
        "%s: %d modules, %d vectors, %d defects at %.1f uA@.  detectable \
         %d/%d  ambiguity classes %d (largest %d, silent %d)@.  expected \
         ambiguity %.2f  resolution entropy %.2f bits  c6 %.3f@."
        (Circuit.name c) (Diagnose.num_modules d) vectors defects current
        s.Diagnose.detectable s.Diagnose.faults s.Diagnose.classes
        s.Diagnose.max_class s.Diagnose.silent s.Diagnose.expected_ambiguity
        s.Diagnose.entropy_bits
        (Diagnose.c6_diagnosability d);
      let acc = Diagnose.measure_accuracy ~rng ~epsilon ~top_k ~trials d in
      Format.printf
        "  localization over %d trials (epsilon %.3f): top-1 ambiguity class \
         %.2f  top-1 module %.2f  top-%d module %.2f@."
        acc.Diagnose.trials epsilon acc.Diagnose.top1_class
        acc.Diagnose.top1_module top_k acc.Diagnose.topk_module;
      (* worked example: diagnose the first detectable defect *)
      let rec first_detectable i =
        if i >= Diagnose.num_faults d then None
        else if Diagnose.detectable d i then Some i
        else first_detectable (i + 1)
      in
      match first_detectable 0 with
      | None -> Format.printf "  no detectable defect to diagnose@."
      | Some truth ->
        let mode =
          if epsilon > 0.0 then Diagnose.Noisy epsilon else Diagnose.Exact
        in
        let obs =
          if epsilon > 0.0 then Diagnose.observe_noisy ~rng ~epsilon d truth
          else Diagnose.predicted d truth
        in
        let ranked = Diagnose.rank ~mode d obs in
        Format.printf "@.  example: defect %d is %a (module %d)@." truth
          (Iddq_defects.Fault.pp c)
          (Diagnose.fault d truth).Iddq_defects.Fault.fault (module_id truth);
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        List.iter
          (fun (cand : Diagnose.candidate) ->
            Format.printf
              "    candidate %3d  class %3d  module %2d  distance %3d%s@."
              cand.Diagnose.fault cand.Diagnose.class_id
              (module_id cand.Diagnose.fault)
              cand.Diagnose.distance
              (if epsilon > 0.0 then
                 Printf.sprintf "  log-likelihood %.1f"
                   cand.Diagnose.log_likelihood
               else ""))
          (take 5 ranked)
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Rank injected defects against observed IDDQ pass/fail signatures \
             and report ambiguity sets, diagnosability, and localization \
             accuracy.")
    Term.(
      const run $ circuit_arg $ bench_arg $ method_arg $ seed_arg
      $ module_size_arg $ library_arg $ defects_arg $ vectors_arg $ current_arg
      $ epsilon $ trials $ top_k)

let compare_cmd =
  let all_methods =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Compare all five methods, not just evolution vs standard.")
  in
  let run circuit bench seed module_size library all =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c ->
      Format.printf "circuit %s: %a@.@." (Circuit.name c) Circuit.pp_stats
        (Circuit.stats c);
      let methods =
        if all then
          [
            Pipeline.Evolution; Pipeline.Standard; Pipeline.Refined_standard;
            Pipeline.Annealing; Pipeline.Random;
          ]
        else [ Pipeline.Evolution; Pipeline.Standard ]
      in
      let results =
        ok_or_exit
          (Pipeline.compare_methods_result
             ~config:(config ~seed ~module_size ~library) c methods)
      in
      List.iter
        (fun (_, r) -> Format.printf "%a@." Report.pp_pipeline r)
        results;
      (match results with
      | (_, evolution) :: (_, standard) :: _ ->
        let row =
          Report.row_of_results ~circuit_name:(Circuit.name c) ~standard
            ~evolution
        in
        Iddq_util.Table.print (Report.table [ row ])
      | _ -> ())
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Evolution vs standard partitioning on one circuit (a Table-1 row).")
    Term.(
      const run $ circuit_arg $ bench_arg $ seed_arg $ module_size_arg
      $ library_arg $ all_methods)

let atpg_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the vectors (one 0/1 row per vector).")
  in
  let random_count =
    Arg.(
      value & opt int 32
      & info [ "random" ] ~docv:"N" ~doc:"Random vectors before PODEM top-up.")
  in
  let run circuit bench seed random_count out =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c -> begin
      let config =
        Iddq_atpg.Atpg.config ~seed ~random_vectors:random_count ()
      in
      match Iddq_atpg.Atpg.run_result ~config c with
      | Error e -> exit_err (Iddq_atpg.Atpg.error_to_string e)
      | Ok r ->
        let stats = r.Iddq_atpg.Atpg.stats in
        Format.printf
          "%s: %d collapsed stuck-at faults@.%d vectors (%d random + %d \
           generated)@.coverage %.1f%%, efficiency %.1f%% (%d untestable, \
           %d aborted)@."
          (Circuit.name c)
          (Iddq_defects.Coverage.num_faults r.Iddq_atpg.Atpg.matrix)
          (Array.length r.Iddq_atpg.Atpg.all_vectors)
          random_count stats.Iddq_atpg.Testset.generated
          (100.0 *. r.Iddq_atpg.Atpg.coverage)
          (100.0 *. r.Iddq_atpg.Atpg.efficiency)
          stats.Iddq_atpg.Testset.untestable stats.Iddq_atpg.Testset.aborted;
        Option.iter
          (fun path ->
            match
              Iddq_patterns.Pattern_io.write_file path
                r.Iddq_atpg.Atpg.all_vectors
            with
            | Ok () -> Format.printf "wrote vectors to %s@." path
            | Error e ->
              exit_err
                (Printf.sprintf "writing vectors: %s" (Io_error.to_string e)))
          out
    end
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:"Generate a stuck-at test set (random vectors + PODEM top-up).")
    Term.(const run $ circuit_arg $ bench_arg $ seed_arg $ random_count $ out)

let testset_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the minimized vectors (one 0/1 row per vector).")
  in
  let random_count =
    Arg.(
      value & opt int 32
      & info [ "random" ] ~docv:"N" ~doc:"Random vectors before PODEM top-up.")
  in
  let strategy_arg =
    let strategies =
      [
        ("greedy", Iddq_atpg.Atpg.Greedy);
        ("essential", Iddq_atpg.Atpg.Essential);
        ("refined", Iddq_atpg.Atpg.Refined);
      ]
    in
    Arg.(
      value
      & opt (enum strategies) Iddq_atpg.Atpg.Refined
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Minimization strategy: greedy (set-cover baseline), essential \
             (essential vectors + set-cover), refined (set-cover + local \
             refinement).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:"Cap on PODEM target attempts (default: unlimited).")
  in
  let backtracks_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-backtracks" ] ~docv:"N"
          ~doc:"Per-target PODEM backtrack limit.")
  in
  let run circuit bench seed random_count strategy budget max_backtracks out =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c -> begin
      let config =
        Iddq_atpg.Atpg.config ~max_backtracks ?budget ~strategy ~seed
          ~random_vectors:random_count ()
      in
      match Iddq_atpg.Atpg.run_result ~config c with
      | Error e -> exit_err (Iddq_atpg.Atpg.error_to_string e)
      | Ok r ->
        let stats = r.Iddq_atpg.Atpg.stats in
        Format.printf
          "%s: %d collapsed stuck-at faults@.%d vectors generated (%d random \
           + %d PODEM), %d after %s minimization@.coverage %.1f%%, efficiency \
           %.1f%% (%d untestable, %d aborted)@."
          (Circuit.name c)
          (Iddq_defects.Coverage.num_faults r.Iddq_atpg.Atpg.matrix)
          r.Iddq_atpg.Atpg.vectors_before stats.Iddq_atpg.Testset.random
          stats.Iddq_atpg.Testset.generated
          (Array.length r.Iddq_atpg.Atpg.vectors)
          (Iddq_atpg.Atpg.strategy_to_string r.Iddq_atpg.Atpg.strategy)
          (100.0 *. r.Iddq_atpg.Atpg.coverage)
          (100.0 *. r.Iddq_atpg.Atpg.efficiency)
          stats.Iddq_atpg.Testset.untestable stats.Iddq_atpg.Testset.aborted;
        Option.iter
          (fun path ->
            match
              Iddq_patterns.Pattern_io.write_file path r.Iddq_atpg.Atpg.vectors
            with
            | Ok () -> Format.printf "wrote vectors to %s@." path
            | Error e ->
              exit_err
                (Printf.sprintf "writing vectors: %s" (Io_error.to_string e)))
          out
    end
  in
  Cmd.v
    (Cmd.info "testset"
       ~doc:
         "Generate and minimize a stuck-at test set: random vectors + PODEM \
          top-up with fault dropping, then coverage-preserving test-set \
          minimization (greedy set-cover, essential vectors, or local \
          refinement).")
    Term.(
      const run $ circuit_arg $ bench_arg $ seed_arg $ random_count
      $ strategy_arg $ budget_arg $ backtracks_arg $ out)

let dump_library_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Destination library file.")
  in
  let run out =
    match Iddq_celllib.Library_io.write_file out Iddq_celllib.Library.default with
    | Error e ->
      exit_err (Printf.sprintf "writing library: %s" (Io_error.to_string e))
    | Ok () ->
      Format.printf "wrote the default library to %s (edit and pass back with --library)@." out
  in
  Cmd.v
    (Cmd.info "dump-library"
       ~doc:"Write the built-in cell library as an editable file.")
    Term.(const run $ out)

let stats_cmd =
  let run circuit bench =
    match load_circuit ~circuit ~bench with
    | Error e -> exit_err e
    | Ok c ->
      Format.printf "%s: %a@." (Circuit.name c) Circuit.pp_stats
        (Circuit.stats c)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print circuit statistics.")
    Term.(const run $ circuit_arg $ bench_arg)

let generate_cmd =
  let gates = Arg.(value & opt int 500 & info [ "gates" ] ~docv:"N" ~doc:"Gate count.") in
  let depth = Arg.(value & opt int 20 & info [ "depth" ] ~docv:"N" ~doc:"Logic depth.") in
  let inputs = Arg.(value & opt int 32 & info [ "inputs" ] ~docv:"N" ~doc:"Primary inputs.") in
  let outputs = Arg.(value & opt int 16 & info [ "outputs" ] ~docv:"N" ~doc:"Primary outputs.") in
  let out = Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output .bench path.") in
  let run gates depth inputs outputs seed out =
    let rng = Iddq_util.Rng.create seed in
    let c =
      Generator.layered_dag ~rng ~name:(Filename.remove_extension (Filename.basename out))
        ~num_inputs:inputs ~num_outputs:outputs ~num_gates:gates ~depth ()
    in
    match Bench_io.write_file out c with
    | Error e ->
      exit_err (Printf.sprintf "writing netlist: %s" (Io_error.to_string e))
    | Ok () ->
      Format.printf "wrote %s: %a@." out Circuit.pp_stats (Circuit.stats c)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random layered netlist as .bench.")
    Term.(const run $ gates $ depth $ inputs $ outputs $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* campaign: the resumable domain-pool sweep                           *)
(* ------------------------------------------------------------------ *)

module Spec = Iddq_campaign.Spec
module Store = Iddq_campaign.Store
module Runner = Iddq_campaign.Runner
module Summary = Iddq_campaign.Summary
module Job_result = Iddq_campaign.Job_result

let campaign_cmd =
  let csv name ~doc =
    Arg.(
      value
      & opt (some string) None
      & info [ name ] ~docv:"LIST" ~doc)
  in
  let spec_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Campaign spec file (key = values lines; see the README).  \
                Grid flags below override its entries.")
  in
  let out =
    Arg.(
      value
      & opt string "campaign.jsonl"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Append-only JSONL result store.  Re-running with the same \
                store resumes: completed jobs are skipped, failures re-run.")
  in
  let domains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let generations =
    Arg.(
      value
      & opt (some int) None
      & info [ "generations" ] ~docv:"N" ~doc:"Cap on ES generations per job.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock budget; a job past it records a timeout \
                result instead of a measurement.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:"Delete the result store first instead of resuming from it.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-job progress lines.")
  in
  let build_spec ~spec_file ~circuits ~methods ~seeds ~sizes ~generations
      ~timeout =
    let ( let* ) = Result.bind in
    let* base =
      match spec_file with
      | None -> Ok Spec.default
      | Some path ->
        Result.map_error Io_error.to_string (Spec.parse_file path)
    in
    (* a grid flag is the spec-file entry of the same key *)
    let set key flag spec =
      match flag with
      | None -> Ok spec
      | Some v ->
        Result.map_error (Printf.sprintf "--%s: %s" key) (Spec.set spec key v)
    in
    let* spec = set "circuits" circuits base in
    let* spec = set "methods" methods spec in
    let* spec = set "seeds" seeds spec in
    let* spec = set "module-sizes" sizes spec in
    let spec =
      {
        spec with
        Spec.max_generations =
          (if generations = None then spec.Spec.max_generations
           else generations);
        timeout = (if timeout = None then spec.Spec.timeout else timeout);
      }
    in
    let* () = Spec.validate spec in
    Ok spec
  in
  let run spec_file circuits methods seeds sizes generations timeout out
      domains fresh quiet =
    match
      build_spec ~spec_file ~circuits ~methods ~seeds ~sizes ~generations
        ~timeout
    with
    | Error e -> exit_err e
    | Ok spec ->
      (* only a regular file is discarded; anything else is left for
         [Store.open_] to refuse *)
      if fresh then begin
        match Unix.stat out with
        | { Unix.st_kind = Unix.S_REG; _ } -> Sys.remove out
        | _ | (exception Unix.Unix_error _) -> ()
      end;
      let store =
        match Store.open_ out with
        | Ok s -> s
        | Error e ->
          exit_err (Printf.sprintf "opening store: %s" (Io_error.to_string e))
      in
      if Store.dropped store > 0 then
        Format.printf
          "note: %d corrupt line(s) in %s ignored (interrupted write)@."
          (Store.dropped store) out;
      let total = List.length (Spec.jobs spec) in
      let seen = ref 0 in
      let on_result (job : Spec.job) (r : Job_result.t) ~fresh =
        incr seen;
        if not quiet then begin
          let what =
            match r.Job_result.status with
            | Job_result.Done _ when not fresh -> "stored (skipped)"
            | Job_result.Done run ->
              Printf.sprintf "ok    %d modules  cost %.2f  %.1fs"
                run.Report.modules run.Report.cost r.Job_result.elapsed
            | Job_result.Failed msg -> "FAILED " ^ msg
            | Job_result.Timeout l -> Printf.sprintf "TIMEOUT > %.1fs" l
          in
          Format.printf "[%d/%d] %-32s %s@." !seen total job.Spec.id what
        end
      in
      let outcome =
        match Runner.run ~domains ~on_result ~store spec with
        | Ok o -> o
        | Error e ->
          Store.close store;
          exit_err (Runner.error_to_string e)
      in
      Store.close store;
      Format.printf "@.%a@." Summary.pp outcome.Runner.results;
      Format.printf
        "campaign: %d jobs, executed %d, skipped %d (resume), ok %d, failed \
         %d, timeout %d -> %s@."
        total outcome.Runner.executed outcome.Runner.skipped outcome.Runner.ok
        outcome.Runner.failed outcome.Runner.timed_out out;
      if outcome.Runner.failed + outcome.Runner.timed_out > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a circuits x methods x seeds x module-sizes sweep over a \
             domain pool with a resumable JSONL result store.")
    Term.(
      const run $ spec_file
      $ csv "circuits" ~doc:"Comma-separated built-in circuit names."
      $ csv "methods" ~doc:"Comma-separated methods (evolution, standard, ...)."
      $ csv "seeds" ~doc:"Comma-separated integer grid seeds."
      $ csv "module-sizes"
          ~doc:"Comma-separated target module sizes; 'default' = estimated."
      $ generations $ timeout $ out $ domains $ fresh $ quiet)

(* ------------------------------------------------------------------ *)
(* serve / client: the resident partition service                      *)
(* ------------------------------------------------------------------ *)

module Server = Iddq_server.Server
module Client = Iddq_server.Client
module Json = Iddq_util.Json

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Per-request wall-clock budget; a request past it is answered \
                with a budget_exceeded error.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Iddq_server.Frame.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Frame payload cap; a frame declaring more closes the \
                connection.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing requests (min 1).")
  in
  let max_pipeline =
    Arg.(
      value & opt int 8
      & info [ "max-pipeline" ] ~docv:"N"
          ~doc:"Per-connection in-flight request cap; requests beyond it are \
                answered with an overloaded error.")
  in
  let max_queue =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Server-wide pending-request cap; requests beyond it are \
                answered with an overloaded error.")
  in
  let cache_entries =
    Arg.(
      value
      & opt int Iddq_server.Cache.default_max_entries
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Session-cache bound per table (circuits, characterizations, \
                vector sets, diagnoses, test sets); least-recently-used \
                entries are evicted beyond it.")
  in
  let run socket budget max_frame workers max_pipeline max_queue cache_entries
      =
    match
      Server.create ~socket ~max_frame ~workers ~max_pipeline ~max_queue
        ?budget ~cache_entries ()
    with
    | Error e -> exit_err (Server.create_error_to_string e)
    | Ok srv ->
      Format.printf "iddq_synth: serving on %s@." socket;
      Format.print_flush ();
      Server.run srv;
      Format.printf "iddq_synth: server stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident partition service: a daemon speaking \
             length-prefixed JSON over a Unix-domain socket, with a session \
             cache keyed by circuit content hash.")
    Term.(
      const run $ socket_arg $ budget $ max_frame $ workers $ max_pipeline
      $ max_queue $ cache_entries)

let client_cmd =
  let run socket =
    (* a write to a closed server becomes an [error:] line, not a
       silent death by SIGPIPE *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    match Client.connect ~socket with
    | Error e -> exit_err e
    | Ok cl ->
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line when String.trim line = "" -> loop ()
        | Some line -> begin
          match Json.parse line with
          | Error e -> exit_err (Printf.sprintf "bad request JSON: %s" e)
          | Ok j -> begin
            match Result.bind (Client.send cl j) (fun () -> Client.recv cl) with
            | Error e -> exit_err e
            | Ok resp -> begin
              match
                print_endline (Json.to_string resp);
                flush stdout
              with
              | () -> loop ()
              | exception Sys_error e ->
                (* drop the unwritable buffer, or the flush at exit
                   raises again *)
                close_out_noerr stdout;
                exit_err ("stdout: " ^ e)
            end
          end
        end
      in
      loop ();
      Client.close cl
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running service: one JSON request per stdin \
             line, one JSON response per stdout line.")
    Term.(const run $ socket_arg)

(* One list drives both the dispatch table and the no-args synopsis, so
   they cannot drift; the cli-usage test parses the "commands:" line
   and compares it against the documented set. *)
let commands =
  [
    partition_cmd;
    compare_cmd;
    simulate_cmd;
    diagnose_cmd;
    atpg_cmd;
    testset_cmd;
    dump_library_cmd;
    stats_cmd;
    generate_cmd;
    campaign_cmd;
    serve_cmd;
    client_cmd;
  ]

let usage_term =
  Term.(
    const (fun () ->
        print_endline "usage: iddq_synth COMMAND [OPTIONS]";
        print_endline
          ("commands: " ^ String.concat " " (List.map Cmd.name commands));
        print_endline "run 'iddq_synth COMMAND --help' for details";
        Stdlib.exit 2)
    $ const ())

let () =
  let info =
    Cmd.info "iddq_synth" ~version:"0.1.0"
      ~doc:"Synthesis of IDDQ-testable circuits with built-in current sensors."
  in
  exit (Cmd.eval (Cmd.group ~default:usage_term info commands))
