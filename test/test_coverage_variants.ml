module Coverage = Iddq_defects.Coverage
module Fault_sim = Iddq_defects.Fault_sim
module Fault = Iddq_defects.Fault
module Variants = Iddq_bic.Variants
module Sensor = Iddq_bic.Sensor
module Test_time = Iddq_bic.Test_time
module Technology = Iddq_celllib.Technology
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Library = Iddq_celllib.Library
module Pattern_gen = Iddq_patterns.Pattern_gen
module Rng = Iddq_util.Rng

let c17 = Iscas.c17 ()
let ch = Charac.make ~library:Library.default c17
let node name = Option.get (Circuit.node_id_of_name c17 name)
let partition () = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |]

let some_faults () =
  [
    { Fault.fault = Fault.Gate_oxide_short (node "10", true); defect_current = 2e-6 };
    { Fault.fault = Fault.Gate_oxide_short (node "23", false); defect_current = 2e-6 };
    { Fault.fault = Fault.Floating_gate (node "16"); defect_current = 2e-6 };
    (* below threshold: undetectable however often activated *)
    { Fault.fault = Fault.Floating_gate (node "19"); defect_current = 1e-9 };
  ]

let test_matrix_basics () =
  let m =
    Fault_sim.detection_matrix (partition ())
      ~vectors:(Pattern_gen.exhaustive c17)
      ~faults:(some_faults ())
  in
  Alcotest.(check int) "faults" 4 (Coverage.num_faults m);
  Alcotest.(check int) "detectable" 3 (Coverage.num_detectable m)

let test_curve_monotone_and_final () =
  let m =
    Fault_sim.detection_matrix (partition ())
      ~vectors:(Pattern_gen.exhaustive c17)
      ~faults:(some_faults ())
  in
  let curve = Coverage.coverage_curve m in
  Alcotest.(check int) "length = vectors" 32 (Array.length curve);
  for i = 1 to Array.length curve - 1 do
    Alcotest.(check bool) "monotone" true (curve.(i) >= curve.(i - 1))
  done;
  Alcotest.(check (float 1e-9)) "final = detectable fraction" 0.75
    curve.(Array.length curve - 1)

let test_first_detection_consistent () =
  let m =
    Fault_sim.detection_matrix (partition ())
      ~vectors:(Pattern_gen.exhaustive c17)
      ~faults:(some_faults ())
  in
  let first = Coverage.first_detection m in
  Alcotest.(check int) "per fault" 4 (Array.length first);
  (* the undetectable one is -1, a floating gate at 2 uA fires on the
     very first vector *)
  Alcotest.(check int) "undetectable" (-1) first.(3);
  Alcotest.(check int) "floating gate immediate" 0 first.(2)

let test_compaction_preserves_coverage () =
  let rng = Rng.create 3 in
  let circuit = Iscas.c432_like () in
  let ch = Charac.make ~library:Library.default circuit in
  let n = Charac.num_gates ch in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod 2)) in
  let faults =
    Fault.random_population ~rng circuit ~count:120 ~defect_current:2e-6
  in
  let vectors = Pattern_gen.random ~rng circuit ~count:96 in
  let m = Fault_sim.detection_matrix p ~vectors ~faults in
  let kept = Coverage.compact m in
  Alcotest.(check bool)
    (Printf.sprintf "compacted %d -> %d vectors" 96 (Array.length kept))
    true
    (Array.length kept < 96 && Array.length kept > 0);
  let full = Coverage.coverage_of_selection m (Array.init 96 Fun.id) in
  let compacted = Coverage.coverage_of_selection m kept in
  Alcotest.(check (float 1e-9)) "coverage preserved" full compacted;
  (* kept indices are sorted and within range *)
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "range" true (v >= 0 && v < 96);
      if i > 0 then Alcotest.(check bool) "sorted" true (v > kept.(i - 1)))
    kept

let test_empty_faults () =
  let m =
    Fault_sim.detection_matrix (partition ())
      ~vectors:(Pattern_gen.exhaustive c17)
      ~faults:[]
  in
  Alcotest.(check int) "compact keeps nothing" 0 (Array.length (Coverage.compact m));
  Alcotest.(check (float 0.0)) "vacuous" 1.0
    (Coverage.coverage_of_selection m [||])

(* ------------- selection / sentinel edge behaviour ------------- *)

let exhaustive_matrix () =
  Fault_sim.detection_matrix (partition ())
    ~vectors:(Pattern_gen.exhaustive c17)
    ~faults:(some_faults ())

(* The naive model: a fault is covered iff any selected vector detects
   it, read bit by bit through [detects] — an independent path from
   the packed mask + intersects implementation. *)
let naive_coverage m selection =
  let nf = Coverage.num_faults m in
  if nf = 0 then 1.0
  else begin
    let hit = ref 0 in
    for f = 0 to nf - 1 do
      if Array.exists (fun v -> Coverage.detects m ~fault:f ~vector:v) selection
      then incr hit
    done;
    float_of_int !hit /. float_of_int nf
  end

let test_selection_duplicates_and_order () =
  let m = exhaustive_matrix () in
  let canonical = Coverage.coverage_of_selection m [| 0; 3; 7 |] in
  Alcotest.(check (float 0.0)) "duplicates and order are irrelevant" canonical
    (Coverage.coverage_of_selection m [| 7; 3; 0; 3; 7; 7; 0 |]);
  Alcotest.(check (float 0.0)) "matches the naive model"
    (naive_coverage m [| 0; 3; 7 |])
    canonical

let test_selection_out_of_range () =
  let m = exhaustive_matrix () in
  let raises sel =
    match Coverage.coverage_of_selection m sel with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "index = num_vectors raises" true (raises [| 32 |]);
  Alcotest.(check bool) "negative index raises" true (raises [| -1 |]);
  Alcotest.(check bool) "valid prefix does not save it" true
    (raises [| 0; 1; 32 |])

let qcheck_selection_matches_naive =
  let m = exhaustive_matrix () in
  QCheck.Test.make
    ~name:"coverage_of_selection = naive model under duplicates and any order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 48) (int_range 0 31))
    (fun sel ->
      let sel = Array.of_list sel in
      Coverage.coverage_of_selection m sel = naive_coverage m sel)

let qcheck_first_detection_matches_naive =
  QCheck.Test.make
    ~name:"first_detection = naive earliest-vector scan with -1 sentinel"
    ~count:25
    QCheck.(pair (int_range 1 80) (int_range 1 100000))
    (fun (nv, seed) ->
      let rng = Rng.create seed in
      let circuit = Iscas.c432_like () in
      let ch = Charac.make ~library:Library.default circuit in
      let n = Charac.num_gates ch in
      let p =
        Partition.create ch ~assignment:(Array.init n (fun g -> g mod 3))
      in
      let faults =
        (* a mixed population plus guaranteed-silent defects, so the
           -1 sentinel is always exercised *)
        Fault.random_population ~rng circuit ~count:20 ~defect_current:2e-6
        @ Fault.random_population ~rng circuit ~count:5 ~defect_current:1e-12
      in
      let vectors = Pattern_gen.random ~rng circuit ~count:nv in
      let m = Fault_sim.detection_matrix p ~vectors ~faults in
      let naive f =
        let rec scan v =
          if v >= nv then -1
          else if Coverage.detects m ~fault:f ~vector:v then v
          else scan (v + 1)
        in
        scan 0
      in
      let first = Coverage.first_detection m in
      Array.length first = List.length faults
      && Array.for_all Fun.id (Array.mapi (fun f got -> got = naive f) first))

(* -------------------- sensor variants -------------------- *)

let test_variant_identity () =
  let t = Technology.default in
  Alcotest.(check bool) "bypass is baseline" true
    (Variants.technology_for t Variants.Bypass_mos = t)

let sensor_for tech =
  Sensor.size ~technology:tech ~peak_current:0.02 ~module_rail_capacitance:1e-11

let test_pn_junction_tradeoff () =
  let base = Technology.default in
  let pn = Variants.technology_for base Variants.Pn_junction in
  Alcotest.(check (result unit string)) "still valid" (Ok ())
    (Technology.validate pn);
  let s_base = sensor_for base and s_pn = sensor_for pn in
  (* no bypass: much smaller area, much larger rail perturbation *)
  Alcotest.(check bool) "smaller area" true (s_pn.Sensor.area < s_base.Sensor.area);
  Alcotest.(check bool) "bigger rail drop" true
    (pn.Technology.rail_budget > base.Technology.rail_budget);
  Alcotest.(check bool) "faster settling" true
    (Test_time.settling pn s_pn < Test_time.settling base s_pn)

let test_proportional_tradeoff () =
  let base = Technology.default in
  let prop = Variants.technology_for base Variants.Proportional in
  Alcotest.(check (result unit string)) "still valid" (Ok ())
    (Technology.validate prop);
  Alcotest.(check bool) "bigger detection front-end" true
    (prop.Technology.sensor_area_fixed > base.Technology.sensor_area_fixed);
  Alcotest.(check bool) "cheaper conductance" true
    (prop.Technology.sensor_area_conductance
    < base.Technology.sensor_area_conductance);
  Alcotest.(check bool) "half the settling" true
    (prop.Technology.settling_decades < base.Technology.settling_decades)

let test_variants_all_named () =
  Alcotest.(check int) "three variants" 3 (List.length Variants.all);
  List.iter
    (fun v -> Alcotest.(check bool) "non-empty name" true (Variants.to_string v <> ""))
    Variants.all

let test_library_with_technology () =
  let lib = Library.default in
  let pn = Variants.technology_for (Library.technology lib) Variants.Pn_junction in
  match Library.with_technology lib pn with
  | Ok lib' ->
    Alcotest.(check (float 0.0)) "technology swapped" 0.5
      (Library.technology lib').Technology.rail_budget
  | Error e -> Alcotest.failf "with_technology: %s" e

let test_module_components () =
  (* output cones are connected; a scattered module is not *)
  let p_cones =
    let a = Array.make 6 0 in
    (* {10,16,22} vs {11,19,23} by name *)
    Array.iteri
      (fun g _ ->
        let name = Circuit.node_name c17 (Circuit.node_of_gate c17 g) in
        if List.mem name [ "11"; "19"; "23" ] then a.(g) <- 1)
      a;
    Partition.create ch ~assignment:a
  in
  Alcotest.(check int) "cone connected" 1 (Partition.module_components p_cones 0);
  (* {10, 23} have no undirected edge between them *)
  let p_scatter =
    let a = [| 0; 1; 1; 1; 1; 0 |] in
    Partition.create ch ~assignment:a
  in
  Alcotest.(check int) "scattered module" 2
    (Partition.module_components p_scatter 0)

let tests =
  [
    Alcotest.test_case "matrix basics" `Quick test_matrix_basics;
    Alcotest.test_case "curve monotone" `Quick test_curve_monotone_and_final;
    Alcotest.test_case "first detection" `Quick test_first_detection_consistent;
    Alcotest.test_case "compaction" `Quick test_compaction_preserves_coverage;
    Alcotest.test_case "empty faults" `Quick test_empty_faults;
    Alcotest.test_case "selection duplicates/order" `Quick
      test_selection_duplicates_and_order;
    Alcotest.test_case "selection out of range" `Quick
      test_selection_out_of_range;
    QCheck_alcotest.to_alcotest qcheck_selection_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_first_detection_matches_naive;
    Alcotest.test_case "variant identity" `Quick test_variant_identity;
    Alcotest.test_case "pn junction tradeoff" `Quick test_pn_junction_tradeoff;
    Alcotest.test_case "proportional tradeoff" `Quick test_proportional_tradeoff;
    Alcotest.test_case "variants named" `Quick test_variants_all_named;
    Alcotest.test_case "library with technology" `Quick
      test_library_with_technology;
    Alcotest.test_case "module components" `Quick test_module_components;
  ]
