(* Cost-aware drive selection (the paper's §6 future work): after
   partitioning, re-map peak-defining gates with timing slack to
   low-drive cells, shrinking every module's worst-case transient and
   therefore its BIC bypass switch - without stretching the critical
   path.

   Run with: dune exec examples/drive_selection.exe *)

module Iscas = Iddq_netlist.Iscas
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Drive_select = Iddq_resynth.Drive_select

let () =
  let circuit = Iscas.c880_like () in
  Format.printf "circuit: %a@.@."
    Iddq_netlist.Circuit.pp_stats
    (Iddq_netlist.Circuit.stats circuit);
  let result =
    match Iddq.Pipeline.run_result Iddq.Pipeline.Evolution circuit with
    | Ok r -> r
    | Error e ->
      prerr_endline ("error: " ^ Iddq.Pipeline.error_to_string e);
      exit 1
  in
  Format.printf "partitioned: %d modules, sensor area %.4e@."
    (Partition.num_modules result.Iddq.Pipeline.partition)
    result.Iddq.Pipeline.breakdown.Cost.sensor_area;
  let r =
    Drive_select.optimize ~max_swaps:96 ~metrics:(Iddq_util.Metrics.create ())
      result.Iddq.Pipeline.partition
  in
  let before = r.Drive_select.before and after = r.Drive_select.after in
  Format.printf "@.drive selection: %d gates re-mapped to the low-drive variant@."
    (List.length r.Drive_select.swaps);
  Format.printf "  sensor area : %.4e -> %.4e  (%.1f%% saved)@."
    before.Cost.sensor_area after.Cost.sensor_area
    (100.0 *. (1.0 -. (after.Cost.sensor_area /. before.Cost.sensor_area)));
  Format.printf "  nominal D   : %.4e s -> %.4e s (slack-bounded: unchanged)@."
    before.Cost.nominal_delay after.Cost.nominal_delay;
  Format.printf "  delay ovh   : %.3e%% -> %.3e%%@."
    (100.0 *. before.Cost.c2_delay)
    (100.0 *. after.Cost.c2_delay);
  Format.printf "  total cost  : %.2f -> %.2f@." before.Cost.penalized
    after.Cost.penalized;
  (* where did the swaps land? *)
  let by_module = Hashtbl.create 8 in
  List.iter
    (fun (s : Drive_select.swap) ->
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt by_module s.Drive_select.module_id)
      in
      Hashtbl.replace by_module s.Drive_select.module_id (cur + 1))
    r.Drive_select.swaps;
  Format.printf "@.swaps per module:@.";
  List.iter
    (fun m ->
      Format.printf "  module %d (%d gates): %d low-drive swaps, imax %.3e A@." m
        (Partition.size r.Drive_select.partition m)
        (Option.value ~default:0 (Hashtbl.find_opt by_module m))
        (Partition.max_transient_current r.Drive_select.partition m))
    (Partition.module_ids r.Drive_select.partition)
