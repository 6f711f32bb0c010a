module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Constraints = Iddq_core.Constraints
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Es = Iddq_evolution.Es
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate

let make circuit = Charac.make ~library:Library.default circuit

(* Replays a planned mutation in place. *)
let apply p journal = Array.iter (fun (g, target) -> Partition.move_gate p g target) journal

let test_target_module_size () =
  let ch = make (Iscas.c432_like ()) in
  let s = Seeds.target_module_size ch in
  Alcotest.(check bool)
    (Printf.sprintf "size %d clipped to the circuit" s)
    true
    (s >= 1 && s <= Charac.num_gates ch);
  let tighter = Seeds.target_module_size ~margin:0.3 ch in
  Alcotest.(check bool) "smaller margin, smaller size" true (tighter <= s)

let test_chain_partition_covers () =
  let rng = Rng.create 5 in
  let ch = make (Iscas.c432_like ()) in
  let p = Seeds.chain_partition ~rng ~module_size:20 ch in
  let total =
    List.fold_left (fun acc m -> acc + Partition.size p m) 0
      (Partition.module_ids p)
  in
  Alcotest.(check int) "covers all gates" (Charac.num_gates ch) total;
  List.iter
    (fun m ->
      Alcotest.(check bool) "size within cap" true (Partition.size p m <= 20))
    (Partition.module_ids p);
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.check_consistent p)

let test_chain_partition_module_count () =
  let rng = Rng.create 5 in
  let ch = make (Iscas.c432_like ()) in
  let p = Seeds.chain_partition ~rng ~module_size:20 ch in
  (* 160 gates at cap 20: exactly 8 modules *)
  Alcotest.(check int) "ceil(n/size) modules" 8 (Partition.num_modules p)

let test_population_count () =
  let rng = Rng.create 5 in
  let ch = make (Iscas.c17 ()) in
  let pop = Seeds.population ~rng ~module_size:3 ~count:5 ch in
  Alcotest.(check int) "five partitions" 5 (List.length pop)

let test_mutate_preserves_invariants () =
  let rng = Rng.create 5 in
  let ch = make (Iscas.c432_like ()) in
  let p = Seeds.chain_partition ~rng ~module_size:20 ch in
  for _ = 1 to 50 do
    apply p (Part_iddq.mutate rng ~step:4 p)
  done;
  Alcotest.(check (result unit string)) "still consistent" (Ok ())
    (Partition.check_consistent p);
  let total =
    List.fold_left (fun acc m -> acc + Partition.size p m) 0
      (Partition.module_ids p)
  in
  Alcotest.(check int) "still covers" (Charac.num_gates ch) total

let test_monte_carlo_preserves_invariants () =
  let rng = Rng.create 5 in
  let ch = make (Iscas.c432_like ()) in
  let p = Seeds.chain_partition ~rng ~module_size:20 ch in
  for _ = 1 to 25 do
    apply p (Part_iddq.monte_carlo rng p)
  done;
  Alcotest.(check (result unit string)) "still consistent" (Ok ())
    (Partition.check_consistent p)

let test_mutate_single_module_noop () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:(Array.make 6 0) in
  let rng = Rng.create 1 in
  apply p (Part_iddq.mutate rng ~step:3 p);
  apply p (Part_iddq.monte_carlo rng p);
  Alcotest.(check int) "still one module" 1 (Partition.num_modules p)

(* The in-place mutation as first written: each move lands before the
   next chosen gate picks its target.  Oracle for the planner, which
   sees those moves only through its pending view. *)
let mutate_in_place rng ~step p =
  let moves = ref [] in
  (if Partition.num_modules p >= 2 then
     let rec pick_source tries =
       if tries = 0 then None
       else
         let boundary =
           Partition.boundary_gates p (Rng.choose_list rng (Partition.module_ids p))
         in
         if Array.length boundary > 0 then Some boundary else pick_source (tries - 1)
     in
     match pick_source 8 with
     | None -> ()
     | Some boundary ->
       let m_move = 1 + Rng.int rng (Stdlib.min step (Array.length boundary)) in
       Array.iter
         (fun g ->
           match Partition.neighbour_modules p g with
           | [] -> ()
           | targets ->
             let target = Rng.choose_list rng targets in
             Partition.move_gate p g target;
             moves := (g, target) :: !moves)
         (Rng.sample_without_replacement rng m_move boundary));
  Array.of_list (List.rev !moves)

let qcheck_plan_matches_in_place =
  let ch = make (Iscas.c432_like ()) in
  QCheck.Test.make ~name:"planned mutation = in-place mutation" ~count:40
    QCheck.(pair (int_range 1 100000) (int_range 1 40))
    (fun (seed, step) ->
      let p = Seeds.chain_partition ~rng:(Rng.create seed) ~module_size:12 ch in
      let before = Partition.assignment p in
      let planned = Part_iddq.mutate (Rng.create seed) ~step p in
      let reference = mutate_in_place (Rng.create seed) ~step (Partition.copy p) in
      planned = reference && Partition.assignment p = before)

let test_optimize_improves () =
  let rng = Rng.create 42 in
  let ch = make (Iscas.c432_like ()) in
  let starts = Seeds.population ~rng ~module_size:40 ~count:3 ch in
  let start_cost =
    List.fold_left
      (fun acc p -> Stdlib.min acc (Iddq_core.Cost.evaluate p).Iddq_core.Cost.penalized)
      infinity starts
  in
  let params =
    { Es.default_params with Es.max_generations = 60; stall_generations = 60 }
  in
  let best, trace =
    Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng ~starts ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "improved %.2f -> %.2f" start_cost best.Es.cost)
    true
    (best.Es.cost <= start_cost);
  Alcotest.(check bool) "ran some generations" true (List.length trace > 0);
  Alcotest.(check (result unit string)) "result consistent" (Ok ())
    (Partition.check_consistent best.Es.solution)

let test_optimize_feasible_result () =
  let rng = Rng.create 42 in
  let ch = make (Iscas.c432_like ()) in
  let starts = Seeds.population ~rng ~count:3 ch in
  let params =
    { Es.default_params with Es.max_generations = 40; stall_generations = 40 }
  in
  let best, _ =
    Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng ~starts ()
  in
  Alcotest.(check bool) "feasible" true (Constraints.satisfied best.Es.solution)

let assignment_digest p =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int (Partition.assignment p)))))

(* Bit-for-bit pins of the seeding and of whole ES runs on two Table-1
   stand-ins: the start population (every assignment and every S(M)),
   and each generation's best cost plus the final assignment at one
   and two domains. *)
let test_seed_population_pinned () =
  List.iter
    (fun (name, c, module_size, digest) ->
      let ch = make c in
      let pop = Seeds.population ~rng:(Rng.create 7) ?module_size ~count:4 ch in
      let b = Buffer.create 4096 in
      List.iter
        (fun p ->
          Array.iter (fun m -> Buffer.add_string b (string_of_int m ^ ",")) (Partition.assignment p);
          List.iter
            (fun m -> Printf.bprintf b "|%d:%d" m (Partition.separation_total p m))
            (Partition.module_ids p);
          Buffer.add_char b '\n')
        pop;
      Alcotest.(check string) (name ^ " population digest") digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      ("c880_like", Iscas.c880_like (), Some 60, "5af68808affa9c976e318a4afd4850e7");
      ("c1908_like", Iscas.c1908_like (), None, "79d454b40da96afa6e6433493f528eac");
    ]

let test_es_trajectory_pinned () =
  List.iter
    (fun (name, c, module_size, best_costs, digest) ->
      let ch = make c in
      List.iter
        (fun domains ->
          let rng = Rng.create 1 in
          let starts = Seeds.population ~rng ?module_size ~count:4 ch in
          let params =
            { Es.default_params with Es.max_generations = 8; stall_generations = 8; domains }
          in
          let best, trace =
            Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng
              ~starts ()
          in
          let label = Printf.sprintf "%s domains=%d" name domains in
          Alcotest.(check (list string)) (label ^ " best cost per generation") best_costs
            (List.map (fun (r : Es.generation_report) -> Printf.sprintf "%h" r.Es.best_cost) trace);
          Alcotest.(check string) (label ^ " final assignment") digest
            (assignment_digest best.Es.solution))
        [ 1; 2 ])
    [
      ( "c880_like",
        Iscas.c880_like (),
        Some 60,
        [ "0x1.cfd24a13f0d7bp+7"; "0x1.cf696f35f42b3p+7"; "0x1.cee243e9904f8p+7";
          "0x1.ce9bce611de84p+7"; "0x1.cd98b4a55805bp+7"; "0x1.ccfae4f38599dp+7";
          "0x1.cca0a4727d89bp+7"; "0x1.cc8d54cf8b621p+7" ],
        "25700c23db64fbaa2a4843e00da88515" );
      ( "c1908_like",
        Iscas.c1908_like (),
        None,
        [ "0x1.79beb3d2f2c82p+7"; "0x1.79a39501a90d2p+7"; "0x1.794f1d5ec00ebp+7";
          "0x1.78f7fcbdf17e5p+7"; "0x1.78f1f706698cbp+7"; "0x1.78dbaae1efd1ap+7";
          "0x1.78d55244b0911p+7"; "0x1.78a09edb0ba81p+7" ],
        "fb31808fec200c242b9427ff3600a23b" );
    ]

let test_optimize_domains_equivalent () =
  (* children are planned serially and built and costed on the pool,
     so the PART-IDDQ run is identical whatever the domain count *)
  let ch = make (Iscas.c880_like ()) in
  let run domains =
    let rng = Rng.create 5 in
    let starts = Seeds.population ~rng ~module_size:50 ~count:3 ch in
    let params =
      { Es.default_params with Es.max_generations = 6; stall_generations = 6; domains }
    in
    let best, trace =
      Part_iddq.optimize ~metrics:(Metrics.create ()) ~params ~rng ~starts ()
    in
    (best.Es.cost, Partition.assignment best.Es.solution, trace)
  in
  let c1, a1, t1 = run 1 and c3, a3, t3 = run 3 in
  Alcotest.(check (float 0.0)) "same best cost" c1 c3;
  Alcotest.(check bool) "same best assignment" true (a1 = a3);
  Alcotest.(check bool) "same trace" true (t1 = t3)

let qcheck_seed_feasibility =
  QCheck.Test.make
    ~name:"chain seeds at the estimated size are feasible" ~count:15
    QCheck.(int_range 1 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:8 ~num_outputs:4
          ~num_gates:120 ~depth:12 ()
      in
      let ch = make circuit in
      let p = Seeds.chain_partition ~rng ch in
      Constraints.satisfied p)

(* The chain walk as first written: each draw builds its candidate
   list — by scanning every gate (closest to the inputs), every member
   of the open module (adjacent to it) or the fanout segment — and
   picks from it with [Rng.choose_list].  Oracle for
   [Seeds.chain_assignment], which must make the same draws and picks. *)
let chain_assignment_oracle ~rng ?module_size ch =
  let n = Charac.num_gates ch in
  let size_cap =
    match module_size with Some s -> Stdlib.max 1 s | None -> Seeds.target_module_size ch
  in
  let c = Charac.circuit ch in
  let u = Charac.undirected ch in
  let levels = Circuit.Csr.levels c in
  let ni = Circuit.num_inputs c in
  let assignment = Array.make n (-1) in
  let free_count = ref n in
  (* free gates of minimum depth, with random tie-breaking *)
  let min_depth_free () =
    let best = ref max_int in
    for g = 0 to n - 1 do
      if assignment.(g) < 0 && levels.(ni + g) < !best then
        best := levels.(ni + g)
    done;
    let candidates = ref [] in
    for g = 0 to n - 1 do
      if assignment.(g) < 0 && levels.(ni + g) = !best then
        candidates := g :: !candidates
    done;
    Rng.choose_list rng !candidates
  in
  let module_id = ref (-1) in
  let module_members = ref [] in
  let module_count = ref 0 in
  let open_module () =
    incr module_id;
    module_members := [];
    module_count := 0
  in
  let claim g =
    assignment.(g) <- !module_id;
    module_members := g :: !module_members;
    incr module_count;
    decr free_count
  in
  (* a free gate adjacent (undirected) to the open module, if any *)
  let adjacent_free () =
    let found = ref [] in
    List.iter
      (fun g ->
        Graph_algo.iter_neighbours u g (fun h ->
            if assignment.(h) < 0 then found := h :: !found))
      !module_members;
    match !found with [] -> None | l -> Some (Rng.choose_list rng l)
  in
  let fo_off = Circuit.Csr.fanout_offsets c in
  let fo_tgt = Circuit.Csr.fanout_targets c in
  (* free fanout gates, ascending (every fanout of a node is a gate) *)
  let free_fanout g =
    let options = ref [] in
    for k = fo_off.(g + ni + 1) - 1 downto fo_off.(g + ni) do
      let h = fo_tgt.(k) - ni in
      if assignment.(h) < 0 then options := h :: !options
    done;
    match !options with [] -> None | l -> Some (Rng.choose_list rng l)
  in
  open_module ();
  while !free_count > 0 do
    if !module_count >= size_cap then open_module ();
    (* seed a chain *)
    let seed =
      if !module_count = 0 then min_depth_free ()
      else begin
        match adjacent_free () with
        | Some g -> g
        | None -> min_depth_free ()
      end
    in
    claim seed;
    (* follow free fanouts toward a primary output *)
    let rec follow g =
      if !module_count < size_cap then begin
        match free_fanout g with
        | None -> ()
        | Some next ->
          claim next;
          follow next
      end
    in
    follow seed
  done;
  assignment

(* A disjoint union of small random DAGs, one per entry of [sizes]
   (its gate count).  A gate reads one or two earlier nodes of its own
   component only, so no path joins two components; each component's
   last gate is an output. *)
let disjoint_dags ~rng sizes =
  let b = Builder.create ~name:"union" () in
  List.iteri
    (fun ci gates ->
      let name j = Printf.sprintf "c%d_%d" ci j in
      let inputs = 1 + Rng.int rng 3 in
      for j = 0 to inputs - 1 do
        Builder.add_input b (name j)
      done;
      for j = inputs to inputs + gates - 1 do
        let a = name (Rng.int rng j) and a' = name (Rng.int rng j) in
        if a = a' then Builder.add_gate b (name j) Gate.Not [ a ]
        else Builder.add_gate b (name j) Gate.Nand [ a; a' ]
      done;
      Builder.add_output b (name (inputs + gates - 1)))
    sizes;
  Builder.freeze_exn b

(* Module sizes that exercise every branch of the walk: single-gate
   modules (no adjacency draw), tiny ones, the estimated size and one
   module holding every gate. *)
let walk_sizes ch =
  let n = Charac.num_gates ch in
  [ Some 1; Some 2; Some 7; None; Some n ]

let qcheck_chain_walk_matches_oracle =
  (* two components of 4 and 6 gates: a 7-gate module takes all of
     one, the adjacency runs dry, and the walk reseeds in the other *)
  let two = make (disjoint_dags ~rng:(Rng.create 3) [ 4; 6 ]) in
  QCheck.Test.make ~name:"chain walk = list-based oracle" ~count:40
    QCheck.(triple (int_range 1 100000) (int_range 1 160) (int_range 1 12))
    (fun (seed, gates, depth) ->
      let depth = Stdlib.min depth gates in
      let circuit =
        Generator.layered_dag ~rng:(Rng.create seed) ~name:"q" ~num_inputs:6
          ~num_outputs:3 ~num_gates:gates ~depth ()
      in
      List.for_all
        (fun ch ->
          List.for_all
            (fun module_size ->
              let rng = Rng.create seed and oracle_rng = Rng.create seed in
              let p = Seeds.chain_partition ~rng ?module_size ch in
              let expected = chain_assignment_oracle ~rng:oracle_rng ?module_size ch in
              Partition.assignment p = expected && Rng.bits64 rng = Rng.bits64 oracle_rng)
            (walk_sizes ch))
        [ make circuit; two ])

let tests =
  [
    Alcotest.test_case "target module size" `Quick test_target_module_size;
    Alcotest.test_case "chain partition covers" `Quick test_chain_partition_covers;
    Alcotest.test_case "chain partition count" `Quick
      test_chain_partition_module_count;
    Alcotest.test_case "population count" `Quick test_population_count;
    Alcotest.test_case "mutate invariants" `Quick test_mutate_preserves_invariants;
    Alcotest.test_case "monte carlo invariants" `Quick
      test_monte_carlo_preserves_invariants;
    Alcotest.test_case "single module noop" `Quick test_mutate_single_module_noop;
    Alcotest.test_case "optimize improves" `Slow test_optimize_improves;
    Alcotest.test_case "optimize feasible" `Slow test_optimize_feasible_result;
    QCheck_alcotest.to_alcotest qcheck_seed_feasibility;
    QCheck_alcotest.to_alcotest qcheck_plan_matches_in_place;
    QCheck_alcotest.to_alcotest qcheck_chain_walk_matches_oracle;
    Alcotest.test_case "seed population pinned" `Quick test_seed_population_pinned;
    Alcotest.test_case "ES trajectory pinned" `Quick test_es_trajectory_pinned;
    Alcotest.test_case "domains equivalent" `Quick test_optimize_domains_equivalent;
  ]
