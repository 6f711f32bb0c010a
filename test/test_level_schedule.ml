(* Level_schedule invariants: a valid topological levelization
   covering every non-input gate exactly once, on random layered DAGs
   and the ISCAS85 suite, plus the per-circuit cache and the
   Domain_pool chunk scheduler the levelized drivers run on. *)

module Rng = Iddq_util.Rng
module Domain_pool = Iddq_util.Domain_pool
module Circuit = Iddq_netlist.Circuit
module Generator = Iddq_netlist.Generator
module Iscas = Iddq_netlist.Iscas
module Level_schedule = Iddq_netlist.Level_schedule

(* ---------------- random layered DAGs (qcheck) ----------------------- *)

let dag_gen =
  QCheck.make
    ~print:(fun (g, s) -> Printf.sprintf "gates=%d seed=%d" g s)
    QCheck.Gen.(pair (int_range 10 200) (int_range 1 1_000_000))

let qcheck_schedule_valid =
  QCheck.Test.make ~name:"schedule is a valid topological levelization"
    ~count:100 dag_gen (fun (gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"lvl" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let s = Level_schedule.compute c in
      match Level_schedule.validate c s with
      | Error e -> QCheck.Test.fail_reportf "invalid schedule: %s" e
      | Ok () ->
        let n_gates = Circuit.num_nodes c - Circuit.num_inputs c in
        Level_schedule.num_gates s = n_gates
        && Array.length (Level_schedule.order s) = n_gates
        && Array.length (Level_schedule.offsets s)
           = Level_schedule.num_levels s + 1)

let qcheck_schedule_order_properties =
  QCheck.Test.make
    ~name:"order: every prefix closed under fanins, ids ascend per level"
    ~count:60 dag_gen (fun (gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"lvl" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let s = Level_schedule.compute c in
      let order = Level_schedule.order s in
      let offsets = Level_schedule.offsets s in
      (* topological: a gate's fanins are inputs or appear earlier *)
      let placed = Array.make (Circuit.num_nodes c) false in
      let topo = ref true in
      Array.iter
        (fun id ->
          Circuit.iter_fanins c id (fun src ->
              if Circuit.is_gate c src && not placed.(src) then topo := false);
          placed.(id) <- true)
        order;
      (* ascending ids inside each level; widths sum to the gates *)
      let ascending = ref true and total = ref 0 in
      for l = 1 to Level_schedule.num_levels s do
        let w = Level_schedule.level_width s l in
        total := !total + w;
        for k = offsets.(l - 1) + 1 to offsets.(l) - 1 do
          if order.(k - 1) >= order.(k) then ascending := false
        done;
        if w > Level_schedule.max_level_width s then ascending := false
      done;
      !topo && !ascending && !total = Level_schedule.num_gates s)

(* ---------------- ISCAS85 suite ------------------------------------- *)

let test_iscas_schedules () =
  List.iter
    (fun (name, c) ->
      let s = Level_schedule.of_circuit c in
      (match Level_schedule.validate c s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      Alcotest.(check bool)
        (name ^ ": of_circuit memoizes on physical identity")
        true
        (Level_schedule.of_circuit c == s);
      (* inputs at level 0, every gate strictly above *)
      for id = 0 to Circuit.num_nodes c - 1 do
        let l = Level_schedule.level_of_node s id in
        if Circuit.is_input c id then
          Alcotest.(check int) (name ^ ": input level") 0 l
        else if l < 1 then Alcotest.failf "%s: gate %d at level %d" name id l
      done)
    (Iscas.table1_suite ())

let test_c17_depth () =
  (* c17: NAND2 ranks {10,11} -> {16,19} -> {22,23} — logic depth 3,
     the classic sanity anchor for any levelizer *)
  let c = Iscas.c17 () in
  let s = Level_schedule.compute c in
  Alcotest.(check int) "c17 levels" 3 (Level_schedule.num_levels s);
  Alcotest.(check int) "c17 gates" 6 (Level_schedule.num_gates s)

(* ---------------- Domain_pool --------------------------------------- *)

let test_pool_covers_all_chunks () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Domain_pool.size pool);
      for trial = 1 to 3 do
        let n = 1 + (trial * 17) in
        let hits = Array.make n (Atomic.make 0) in
        Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
        let steals =
          Domain_pool.run pool ~chunks:n (fun c ->
              ignore (Atomic.fetch_and_add hits.(c) 1))
        in
        Array.iteri
          (fun i h ->
            Alcotest.(check int)
              (Printf.sprintf "trial %d chunk %d ran once" trial i)
              1 (Atomic.get h))
          hits;
        if steals < 0 then Alcotest.fail "negative steals"
      done)

let test_pool_serial_inline () =
  let pool = Domain_pool.create ~domains:1 in
  let sum = ref 0 in
  let steals = Domain_pool.run pool ~chunks:10 (fun c -> sum := !sum + c) in
  Alcotest.(check int) "all chunks on the caller" 45 !sum;
  Alcotest.(check int) "no steals serially" 0 steals;
  Domain_pool.shutdown pool;
  (* run after shutdown still executes, inline *)
  let again = Domain_pool.run pool ~chunks:3 (fun _ -> incr sum) in
  Alcotest.(check int) "inline after shutdown" 48 !sum;
  Alcotest.(check int) "no steals after shutdown" 0 again;
  Domain_pool.shutdown pool

exception Boom

let test_pool_reraises () =
  Domain_pool.with_pool ~domains:2 (fun pool ->
      (match
         Domain_pool.run pool ~chunks:8 (fun c -> if c = 5 then raise Boom)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom -> ());
      (* the pool survives a failed job *)
      let ran = Atomic.make 0 in
      ignore
        (Domain_pool.run pool ~chunks:4 (fun _ ->
             ignore (Atomic.fetch_and_add ran 1)));
      Alcotest.(check int) "pool reusable after exception" 4 (Atomic.get ran))

(* Past the runtime's domain limit [create] fails; the workers it had
   spawned are joined, so they do not use up the limit for later
   pools. *)
let test_pool_spawn_failure_joins () =
  (match Domain_pool.create ~domains:10_000 with
  | pool ->
    Domain_pool.shutdown pool;
    Alcotest.fail "10000 domains spawned"
  | exception Failure _ -> ());
  Domain_pool.with_pool ~domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      ignore
        (Domain_pool.run pool ~chunks:4 (fun _ ->
             ignore (Atomic.fetch_and_add ran 1)));
      Alcotest.(check int) "a 2-domain pool runs after the failure" 4
        (Atomic.get ran))

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_schedule_valid;
    QCheck_alcotest.to_alcotest qcheck_schedule_order_properties;
    Alcotest.test_case "ISCAS85 schedules validate and cache" `Quick
      test_iscas_schedules;
    Alcotest.test_case "c17 depth anchor" `Quick test_c17_depth;
    Alcotest.test_case "pool runs every chunk exactly once" `Quick
      test_pool_covers_all_chunks;
    Alcotest.test_case "pool serial and post-shutdown inline" `Quick
      test_pool_serial_inline;
    Alcotest.test_case "pool re-raises and survives" `Quick test_pool_reraises;
    Alcotest.test_case "pool spawn failure joins its workers" `Quick
      test_pool_spawn_failure_joins;
  ]
