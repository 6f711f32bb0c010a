(* Quickstart: build a small netlist with the Builder API, synthesize
   an IDDQ-testable version (partition + one BIC sensor per module),
   and print the resulting design.

   Run with: dune exec examples/quickstart.exe *)

module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate
module Partition = Iddq_core.Partition

let build_circuit () =
  let b = Builder.create ~name:"demo" () in
  List.iter (Builder.add_input b) [ "a"; "b"; "c"; "d"; "e" ];
  Builder.add_gate b "n1" Gate.Nand [ "a"; "b" ];
  Builder.add_gate b "n2" Gate.Nor [ "c"; "d" ];
  Builder.add_gate b "n3" Gate.And [ "n1"; "n2" ];
  Builder.add_gate b "n4" Gate.Xor [ "n2"; "e" ];
  Builder.add_gate b "n5" Gate.Or [ "n3"; "n4" ];
  Builder.add_gate b "n6" Gate.Not [ "n5" ];
  Builder.add_gate b "n7" Gate.Nand [ "n3"; "n6" ];
  Builder.add_gate b "n8" Gate.Nand [ "n4"; "n6" ];
  Builder.add_output b "n7";
  Builder.add_output b "n8";
  Builder.freeze_exn b

let () =
  let circuit = build_circuit () in
  Format.printf "circuit: %a@."
    Iddq_netlist.Circuit.pp_stats
    (Iddq_netlist.Circuit.stats circuit);
  (* force a 2-module partition so the tiny demo actually partitions *)
  let config = Iddq.Pipeline.config ~module_size:4 () in
  let result =
    match Iddq.Pipeline.run_result ~config Iddq.Pipeline.Evolution circuit with
    | Ok r -> r
    | Error e ->
      prerr_endline ("error: " ^ Iddq.Pipeline.error_to_string e);
      exit 1
  in
  Format.printf "@.synthesis result:@.%a" Iddq.Report.pp_pipeline result;
  Format.printf "@.partition detail:@.%a" Partition.pp result.Iddq.Pipeline.partition;
  List.iter
    (fun m ->
      let gates = Partition.members result.Iddq.Pipeline.partition m in
      let names =
        Array.to_list gates
        |> List.map (fun g ->
               Iddq_netlist.Circuit.node_name circuit
                 (Iddq_netlist.Circuit.node_of_gate circuit g))
      in
      Format.printf "module %d: {%s}@." m (String.concat ", " names))
    (Partition.module_ids result.Iddq.Pipeline.partition)
