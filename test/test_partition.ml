module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Generator = Iddq_netlist.Generator
module Graph_algo = Iddq_netlist.Graph_algo
module Seeds = Iddq_evolution.Seeds
module Library = Iddq_celllib.Library
module Rng = Iddq_util.Rng

let make circuit = Charac.make ~library:Library.default circuit

let c17_two_modules () =
  let ch = make (Iscas.c17 ()) in
  (* gates in topo order: 10, 11, 16, 19, 22, 23 *)
  (ch, Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |])

let test_create_basic () =
  let _, p = c17_two_modules () in
  Alcotest.(check int) "modules" 2 (Partition.num_modules p);
  Alcotest.(check (list int)) "ids" [ 0; 1 ] (Partition.module_ids p);
  Alcotest.(check int) "size 0" 3 (Partition.size p 0);
  Alcotest.(check int) "size 1" 3 (Partition.size p 1);
  Alcotest.(check bool) "members 0" true (Partition.members p 0 = [| 0; 2; 4 |]);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent p)

let test_create_validation () =
  let ch = make (Iscas.c17 ()) in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Partition.create ch ~assignment:[| 0; 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "sparse ids rejected" true
    (try
       ignore (Partition.create ch ~assignment:[| 0; 2; 0; 2; 0; 2 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative id rejected" true
    (try
       ignore (Partition.create ch ~assignment:[| 0; -1; 0; 0; 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_move_gate () =
  let _, p = c17_two_modules () in
  Partition.move_gate p 0 1;
  Alcotest.(check int) "module of 0" 1 (Partition.module_of_gate p 0);
  Alcotest.(check int) "size 0 shrank" 2 (Partition.size p 0);
  Alcotest.(check int) "size 1 grew" 4 (Partition.size p 1);
  Alcotest.(check (result unit string)) "aggregates consistent" (Ok ())
    (Partition.check_consistent p);
  (* moving back restores the aggregate state *)
  Partition.move_gate p 0 0;
  Alcotest.(check (result unit string)) "restored" (Ok ())
    (Partition.check_consistent p)

let test_move_to_own_module_noop () =
  let _, p = c17_two_modules () in
  let before = Partition.assignment p in
  Partition.move_gate p 3 1;
  Alcotest.(check bool) "unchanged" true (Partition.assignment p = before)

let test_module_death () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 0; 0; 0; 0; 1 |] in
  Partition.move_gate p 5 0;
  Alcotest.(check int) "one module left" 1 (Partition.num_modules p);
  Alcotest.(check (list int)) "id 1 dead" [ 0 ] (Partition.module_ids p);
  Alcotest.(check int) "dead module size 0" 0 (Partition.size p 1);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent p);
  Alcotest.(check bool) "moving to a dead module rejected" true
    (try
       Partition.move_gate p 0 1;
       false
     with Invalid_argument _ -> true)

let test_copy_independent () =
  let _, p = c17_two_modules () in
  let q = Partition.copy p in
  Partition.move_gate p 0 1;
  Alcotest.(check int) "copy untouched" 0 (Partition.module_of_gate q 0);
  Alcotest.(check (result unit string)) "copy consistent" (Ok ())
    (Partition.check_consistent q)

let test_boundary_gates () =
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  (* {10,16,22} vs {11,19,23}: all six gates touch the other cone
     except... 10 connects to 22 (own) and inputs; 10-16? no.  10 is
     inner iff all neighbours are in its module. *)
  let name g = Circuit.node_name circuit (Circuit.node_of_gate circuit g) in
  let assign = Array.make 6 0 in
  Array.iteri
    (fun g _ ->
      if List.mem (name g) [ "11"; "19"; "23" ] then assign.(g) <- 1)
    assign;
  let p = Partition.create ch ~assignment:assign in
  let boundary0 = Partition.boundary_gates p 0 in
  let names0 = Array.to_list boundary0 |> List.map name |> List.sort compare in
  (* 16 = NAND(2, 11) touches 11 and 23; 10 only touches 22; 22
     touches 10 and 16 only.  So boundary of {10,16,22} = {16}. *)
  Alcotest.(check (list string)) "boundary of cone 0" [ "16" ] names0;
  let boundary1 = Partition.boundary_gates p 1 in
  let names1 = Array.to_list boundary1 |> List.map name |> List.sort compare in
  (* 11 feeds 16; 23 reads 16 -> both boundary; 19 only touches 11,23 *)
  Alcotest.(check (list string)) "boundary of cone 1" [ "11"; "23" ] names1

let test_neighbour_modules () =
  let circuit = Iscas.c17 () in
  let ch = make circuit in
  let name g = Circuit.node_name circuit (Circuit.node_of_gate circuit g) in
  let assign = Array.make 6 0 in
  Array.iteri
    (fun g _ -> if List.mem (name g) [ "11"; "19"; "23" ] then assign.(g) <- 1)
    assign;
  let p = Partition.create ch ~assignment:assign in
  let g16 =
    Circuit.gate_of_node circuit (Option.get (Circuit.node_id_of_name circuit "16"))
  in
  Alcotest.(check (list int)) "16 neighbours module 1" [ 1 ]
    (Partition.neighbour_modules p g16);
  let g10 =
    Circuit.gate_of_node circuit (Option.get (Circuit.node_id_of_name circuit "10"))
  in
  Alcotest.(check (list int)) "10 is interior" []
    (Partition.neighbour_modules p g10)

let test_aggregates_match_direct_estimators () =
  let ch, p = c17_two_modules () in
  List.iter
    (fun m ->
      let gates = Partition.members p m in
      Alcotest.(check (float 1e-18)) "leakage"
        (Iddq_analysis.Switching.leakage ch gates)
        (Partition.leakage p m);
      Alcotest.(check (float 1e-15)) "imax"
        (Iddq_analysis.Switching.max_transient_current ch gates)
        (Partition.max_transient_current p m))
    (Partition.module_ids p)

let test_sensors_per_live_module () =
  let _, p = c17_two_modules () in
  Alcotest.(check int) "two sensors" 2 (List.length (Partition.sensors p))

let random_move_sequence ch rng p steps =
  for _ = 1 to steps do
    if Partition.num_modules p >= 2 then begin
      let src = Rng.choose_list rng (Partition.module_ids p) in
      let members = Partition.members p src in
      if Array.length members > 0 then begin
        let g = Rng.choose rng members in
        let target = Rng.choose_list rng (Partition.module_ids p) in
        if target <> Partition.module_of_gate p g then
          Partition.move_gate p g target
      end
    end
  done;
  ignore ch

let qcheck_incremental_consistency =
  QCheck.Test.make
    ~name:"aggregates stay consistent under random move sequences" ~count:25
    QCheck.(triple (int_range 20 80) (int_range 2 6) (int_range 1 100000))
    (fun (gates, k, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let assignment = Array.init gates (fun g -> g mod k) in
      let p = Partition.create ch ~assignment in
      random_move_sequence ch rng p 60;
      Partition.check_consistent p = Ok ())

let qcheck_cover_preserved =
  QCheck.Test.make ~name:"moves preserve the disjoint cover" ~count:25
    QCheck.(pair (int_range 20 60) (int_range 1 100000))
    (fun (gates, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let p = Partition.create ch ~assignment:(Array.init gates (fun g -> g mod 3)) in
      random_move_sequence ch rng p 40;
      (* every gate in exactly one live module; sizes sum to n *)
      let total =
        List.fold_left (fun acc m -> acc + Partition.size p m) 0
          (Partition.module_ids p)
      in
      total = gates)

let qcheck_shared_sweep =
  QCheck.Test.make
    ~name:"one sweep over many assignments = one create per assignment"
    ~count:25
    QCheck.(triple (int_range 20 80) (int_range 1 5) (int_range 1 100000))
    (fun (gates, count, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let assignments =
        List.init count (fun _ ->
            let k = Rng.int_in_range rng ~min:1 ~max:8 in
            let a = Array.init gates (fun g -> g mod k) in
            Rng.shuffle_in_place rng a;
            a)
      in
      let swept = Partition.create_many ch ~assignments in
      List.for_all2
        (fun assignment p ->
          let alone = Partition.create ch ~assignment in
          Partition.assignment p = assignment
          && List.map (Partition.separation_total p) (Partition.module_ids p)
             = List.map (Partition.separation_total alone) (Partition.module_ids alone)
          && Partition.check_consistent p = Ok ())
        assignments swept)

(* A dense assignment of [n] gates to [k] modules drawn at random;
   modules [k'..k-1] get one gate each, so singletons always occur
   when [k' < k]. *)
let random_dense_assignment rng n k =
  let k' = Rng.int_in_range rng ~min:1 ~max:k in
  let a = Array.init n (fun _ -> Rng.int rng k') in
  let order = Array.init n Fun.id in
  Rng.shuffle_in_place rng order;
  for m = 0 to k - 1 do
    a.(order.(m)) <- m
  done;
  a

(* The S(M) sweep runs in passes of 126 source ids, two words of 63,
   so the sizes sit on both sides of a word, a pass and two passes. *)
let qcheck_sweep_matches_module_separation =
  QCheck.Test.make ~name:"S(M) sweep = module_separation" ~count:40
    QCheck.(
      triple
        (oneofl [ 1; 2; 62; 63; 64; 125; 126; 127; 252; 253; 300 ])
        (int_range 1 5) (int_range 1 100000))
    (fun (gates, count, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6
          ~num_outputs:(Stdlib.min 3 gates) ~num_gates:gates
          ~depth:(Stdlib.min gates (1 + (gates / 8))) ()
      in
      let ch = make circuit in
      let u = Charac.undirected ch and cutoff = Charac.separation_cutoff ch in
      let assignments =
        List.init count (fun _ ->
            let k = Rng.int_in_range rng ~min:1 ~max:(Stdlib.min 40 gates) in
            random_dense_assignment rng gates k)
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun m ->
              Partition.separation_total p m
              = Graph_algo.module_separation u ~cutoff (Partition.members p m))
            (Partition.module_ids p))
        (Partition.create_many ch ~assignments))

let test_seed_population_consistent () =
  let ch = make (Iscas.c7552_like ()) in
  List.iter
    (fun p ->
      Alcotest.(check (result unit string)) "consistent" (Ok ())
        (Partition.check_consistent p))
    (Seeds.population ~rng:(Rng.create 5) ~count:4 ch)

(* Everything a move updates, floats as their bit patterns, over every
   module id the partition started with (dead ones included). *)
let fingerprint ch ids p =
  let slots = Charac.depth ch + 1 in
  let bits = Int64.bits_of_float in
  ( Partition.assignment p,
    Partition.num_modules p,
    Partition.module_ids p,
    List.map
      (fun m ->
        ( Partition.size p m,
          Partition.separation_total p m,
          bits (Partition.leakage p m),
          bits (Partition.rail_capacitance p m),
          Array.map bits (Partition.current_profile p m),
          List.init slots (Partition.activity p m) ))
      ids )

(* A random subset of a live module, in random order: sizes around the
   63-gate word and the 126-gate pass of the multi-source BFS, or the
   whole module. *)
let draw_batch rng p =
  let src = Rng.choose_list rng (Partition.module_ids p) in
  let members = Partition.members p src in
  let n = Array.length members in
  let count =
    match Rng.int rng 4 with
    | 0 -> n
    | 1 -> Stdlib.min n (Rng.choose rng [| 62; 63; 64; 65; 125; 126; 127; 252; 253 |])
    | _ -> 1 + Rng.int rng n
  in
  let target =
    Rng.choose_list rng (List.filter (( <> ) src) (Partition.module_ids p))
  in
  (Rng.sample_without_replacement rng count members, target)

let random_partition_circuit rng gates =
  let circuit =
    Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
      ~num_gates:gates ~depth:(1 + (gates / 10)) ()
  in
  let ch = make circuit in
  let k = Rng.int_in_range rng ~min:2 ~max:4 in
  let assignment = Array.init gates (fun g -> g mod k) in
  Rng.shuffle_in_place rng assignment;
  (ch, k, Partition.create ch ~assignment)

let qcheck_batched_equals_sequential =
  QCheck.Test.make ~name:"batched move = sequential moves" ~count:25
    QCheck.(pair (int_range 80 320) (int_range 1 100000))
    (fun (gates, seed) ->
      let rng = Rng.create seed in
      let ch, k, batched = random_partition_circuit rng gates in
      let sequential = Partition.copy batched in
      let ids = List.init k Fun.id in
      let ok = ref true in
      (* a few batches in a row, so later ones start from moved state *)
      for _ = 1 to 3 do
        if Partition.num_modules batched >= 2 then begin
          let gates, target = draw_batch rng batched in
          Partition.move_gates batched gates ~target;
          Array.iter (fun g -> Partition.move_gate sequential g target) gates;
          ok :=
            !ok
            && fingerprint ch ids batched = fingerprint ch ids sequential
            && Partition.check_consistent batched = Ok ()
        end
      done;
      !ok)

let test_move_gates_whole_module () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 2; 2 |] in
  let q = Partition.copy p in
  Partition.move_gates p [| 3; 1 |] ~target:2;
  Partition.move_gate q 3 2;
  Partition.move_gate q 1 2;
  let ids = [ 0; 1; 2 ] in
  Alcotest.(check bool) "same state as sequential moves" true
    (fingerprint ch ids p = fingerprint ch ids q);
  Alcotest.(check (list int)) "source died" [ 0; 2 ] (Partition.module_ids p);
  Alcotest.(check int) "dead source S(M)" 0 (Partition.separation_total p 1);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent p);
  Partition.move_gates p [||] ~target:1;
  Alcotest.(check bool) "empty batch is a no-op" true
    (fingerprint ch ids p = fingerprint ch ids q)

let test_move_gates_rejects () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 0; 0; 1; 1; 2 |] in
  Partition.move_gate p 5 1;
  let ids = [ 0; 1; 2 ] in
  let before = fingerprint ch ids p in
  let rejected name gates target =
    Alcotest.(check bool) (name ^ " rejected") true
      (try
         Partition.move_gates p gates ~target;
         false
       with Invalid_argument _ -> true);
    Alcotest.(check bool) (name ^ ": state unchanged") true
      (fingerprint ch ids p = before)
  in
  rejected "mixed source modules" [| 0; 1; 3 |] 1;
  rejected "target = source" [| 0; 1 |] 0;
  rejected "dead target" [| 0; 1 |] 2;
  rejected "target out of range" [| 0 |] 7;
  rejected "duplicate gate" [| 0; 1; 0 |] 1;
  rejected "gate out of range" [| 0; 6 |] 1

(* A partition built from the in-horizon sums A(M) equals [create]'s:
   the sums here come back out of [create]'s own S(M). *)
let test_create_with_near () =
  let ch = make (Iscas.c432_like ()) in
  let cutoff = Charac.separation_cutoff ch in
  let n = Charac.num_gates ch in
  let assignment = Array.init n (fun g -> g * 5 / n) in
  let p = Partition.create ch ~assignment in
  let ids = Partition.module_ids p in
  let near =
    Array.of_list
      (List.map
         (fun m ->
           let k = Partition.size p m in
           (cutoff * k * (k - 1) / 2) - Partition.separation_total p m)
         ids)
  in
  let q = Partition.create_with_near ch ~assignment ~near in
  Alcotest.(check bool) "same state as create" true
    (fingerprint ch ids q = fingerprint ch ids p);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent q);
  Alcotest.(check bool) "one sum per module" true
    (try
       ignore (Partition.create_with_near ch ~assignment ~near:[| 0 |]);
       false
     with Invalid_argument _ -> true)

let tests =
  [
    Alcotest.test_case "create basic" `Quick test_create_basic;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "move gate" `Quick test_move_gate;
    Alcotest.test_case "move to own module" `Quick test_move_to_own_module_noop;
    Alcotest.test_case "module death" `Quick test_module_death;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "boundary gates" `Quick test_boundary_gates;
    Alcotest.test_case "neighbour modules" `Quick test_neighbour_modules;
    Alcotest.test_case "aggregates match estimators" `Quick
      test_aggregates_match_direct_estimators;
    Alcotest.test_case "sensors per module" `Quick test_sensors_per_live_module;
    QCheck_alcotest.to_alcotest qcheck_incremental_consistency;
    QCheck_alcotest.to_alcotest qcheck_cover_preserved;
    QCheck_alcotest.to_alcotest qcheck_shared_sweep;
    QCheck_alcotest.to_alcotest qcheck_sweep_matches_module_separation;
    Alcotest.test_case "seed population consistent (C7552)" `Quick
      test_seed_population_consistent;
    QCheck_alcotest.to_alcotest qcheck_batched_equals_sequential;
    Alcotest.test_case "batched move empties its source" `Quick
      test_move_gates_whole_module;
    Alcotest.test_case "batched move rejects before moving" `Quick
      test_move_gates_rejects;
    Alcotest.test_case "create from in-horizon sums = create" `Quick
      test_create_with_near;
  ]
