(* End-to-end IDDQ test (the behaviour of Fig. 1's sensor over a whole
   test): inject a population of bridging / gate-oxide-short /
   floating-gate defects, apply pseudo-random vectors, and compare the
   partitioned on-chip BIC test against a single whole-chip
   measurement whose threshold must sit above the full-chip leakage.

   Run with: dune exec examples/defect_coverage.exe *)

module Iscas = Iddq_netlist.Iscas
module Charac = Iddq_analysis.Charac
module Fault = Iddq_defects.Fault
module Iddq_sim = Iddq_defects.Iddq_sim
module Pattern_gen = Iddq_patterns.Pattern_gen

(* A leakier process: 10x the default per-gate quiescent current.
   This is the paper's motivating scenario - the non-defective IDDQ of
   the whole chip exceeds 1 uA, so a single measurement cannot
   discriminate small defects. *)
let leaky_library () =
  let base = Iddq_celllib.Library.default in
  let cells =
    List.map
      (fun k ->
        let c = Iddq_celllib.Library.cell base k in
        (k, { c with Iddq_celllib.Cell.leakage = 10.0 *. c.Iddq_celllib.Cell.leakage }))
      Iddq_netlist.Gate.all_kinds
  in
  match
    Iddq_celllib.Library.make ~name:"cmos1u-leaky"
      ~technology:(Iddq_celllib.Library.technology base)
      ~cells ()
  with
  | Ok l -> l
  | Error e -> failwith e

let () =
  let circuit = Iscas.c2670_like () in
  Format.printf "circuit: %a@.@."
    Iddq_netlist.Circuit.pp_stats
    (Iddq_netlist.Circuit.stats circuit);
  let config = Iddq.Pipeline.config ~library:(leaky_library ()) () in
  let result =
    match Iddq.Pipeline.run_result ~config Iddq.Pipeline.Evolution circuit with
    | Ok r -> r
    | Error e ->
      prerr_endline ("error: " ^ Iddq.Pipeline.error_to_string e);
      exit 1
  in
  let ch = result.Iddq.Pipeline.charac in
  Format.printf "partitioned design:@.%a@." Iddq.Report.pp_pipeline result;
  let rng = Iddq_util.Rng.create 7 in
  (* defects drawing 1.2 uA: above the per-module threshold, hidden
     below the guard-banded full-chip threshold *)
  let faults =
    Fault.random_population ~rng circuit ~count:200 ~defect_current:1.2e-6
  in
  let vectors = Pattern_gen.random ~rng circuit ~count:64 in
  let partitioned =
    Iddq_sim.run_partitioned result.Iddq.Pipeline.partition ~vectors ~faults
  in
  let single = Iddq_sim.run_single_sensor ch ~vectors ~faults in
  let pct x = 100.0 *. x in
  Format.printf "@.%d defects, %d vectors:@." (List.length faults)
    (Array.length vectors);
  Format.printf "  partitioned BIC test: coverage %5.1f%%  test time %.3e s@."
    (pct partitioned.Iddq_sim.coverage)
    partitioned.Iddq_sim.test_time;
  Format.printf "  single-sensor test:   coverage %5.1f%%  test time %.3e s@."
    (pct single.Iddq_sim.coverage)
    single.Iddq_sim.test_time;
  (* which defect classes were missed by the single sensor? *)
  let missed =
    List.filter (fun d -> not d.Iddq_sim.detected) single.Iddq_sim.detections
  in
  Format.printf
    "@.the single sensor misses %d defects: their %.1f uA lies below the \
     guard-banded full-chip threshold.@."
    (List.length missed) 1.2;
  match missed with
  | [] -> ()
  | d :: _ ->
    Format.printf "  e.g. %a@."
      (Fault.pp circuit)
      d.Iddq_sim.injected.Fault.fault
