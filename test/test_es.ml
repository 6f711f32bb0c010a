module Es = Iddq_evolution.Es
module Rng = Iddq_util.Rng

(* Toy problem: minimize the sum of absolute values of an int vector.
   Mutation nudges up to [step] coordinates by +-1; Monte-Carlo
   rerolls one coordinate entirely.  Planning draws; the build step
   applies the drawn edits to the child. *)
let toy_problem =
  {
    Es.copy = Array.copy;
    cost = (fun v -> Array.fold_left (fun acc x -> acc +. Float.abs (float_of_int x)) 0.0 v);
    mutate =
      (fun rng ~step v ->
        let nudges =
          List.init (Stdlib.max 1 (Stdlib.min step (Array.length v))) (fun _ ->
              let i = Rng.int rng (Array.length v) in
              (i, if Rng.bool rng then 1 else -1))
        in
        fun child -> List.iter (fun (i, d) -> child.(i) <- child.(i) + d) nudges);
    monte_carlo =
      (fun rng v ->
        let i = Rng.int rng (Array.length v) in
        let x = Rng.int_in_range rng ~min:(-50) ~max:50 in
        fun child -> child.(i) <- x);
  }

let start () = [ [| 17; -23; 5; 40; -9 |]; [| -30; 30; -30; 30; -30 |] ]

let params =
  {
    Es.default_params with
    Es.max_generations = 400;
    stall_generations = 400;
  }

let test_converges () =
  let rng = Rng.create 3 in
  let best, trace = Es.run params rng toy_problem (start ()) in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.1f near zero" best.Es.cost)
    true (best.Es.cost <= 2.0);
  Alcotest.(check int) "trace length" 400 (List.length trace)

let test_best_cost_monotone () =
  let rng = Rng.create 5 in
  let _, trace = Es.run params rng toy_problem (start ()) in
  let rec check prev = function
    | [] -> true
    | (r : Es.generation_report) :: rest ->
      r.Es.best_cost <= prev +. 1e-12 && check r.Es.best_cost rest
  in
  Alcotest.(check bool) "best never worsens" true (check infinity trace)

let test_deterministic () =
  let run () =
    let rng = Rng.create 11 in
    let best, _ = Es.run params rng toy_problem (start ()) in
    (best.Es.cost, best.Es.solution)
  in
  let c1, s1 = run () and c2, s2 = run () in
  Alcotest.(check (float 0.0)) "same cost" c1 c2;
  Alcotest.(check bool) "same solution" true (s1 = s2)

let test_inputs_not_mutated () =
  let starts = start () in
  let snapshot = List.map Array.copy starts in
  let rng = Rng.create 1 in
  let _ = Es.run { params with Es.max_generations = 20 } rng toy_problem starts in
  List.iter2
    (fun a b -> Alcotest.(check bool) "start untouched" true (a = b))
    starts snapshot

let test_stall_stops_early () =
  (* a constant cost function stalls immediately *)
  let constant =
    { toy_problem with Es.cost = (fun _ -> 1.0) }
  in
  let rng = Rng.create 2 in
  let _, trace =
    Es.run
      { params with Es.max_generations = 1000; stall_generations = 5 }
      rng constant (start ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "stopped after %d gens" (List.length trace))
    true
    (List.length trace <= 7)

let test_param_validation () =
  let rng = Rng.create 1 in
  let bad p = try ignore (Es.run p rng toy_problem (start ())); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "mu < 1" true (bad { params with Es.mu = 0 });
  Alcotest.(check bool) "no offspring" true (bad { params with Es.lambda = 0; chi = 0 });
  Alcotest.(check bool) "omega < 1" true (bad { params with Es.omega = 0 });
  Alcotest.(check bool) "m < 1" true (bad { params with Es.m_init = 0 });
  Alcotest.(check bool) "no starts" true
    (try ignore (Es.run params rng toy_problem []); false with Invalid_argument _ -> true)

(* [Es.validate] is the check [Es.run] makes: a Monte-Carlo-only
   population runs, and a negative generation cap is rejected by both. *)
let test_validate_matches_run () =
  let rng = Rng.create 1 in
  let mc_only = { params with Es.lambda = 0; chi = 3; max_generations = 3 } in
  Alcotest.(check bool) "lambda = 0, chi > 0 valid" true
    (Es.validate mc_only = Ok ());
  ignore (Es.run mc_only rng toy_problem (start ()));
  let negative = { params with Es.max_generations = -1 } in
  Alcotest.(check bool) "max_generations < 0 invalid" true
    (Result.is_error (Es.validate negative));
  Alcotest.(check bool) "run rejects it too" true
    (try ignore (Es.run negative rng toy_problem (start ())); false
     with Invalid_argument _ -> true)

let test_on_generation_callback () =
  let rng = Rng.create 1 in
  let calls = ref 0 in
  let _ =
    Es.run
      ~on_generation:(fun _ -> incr calls)
      { params with Es.max_generations = 13; stall_generations = 100 }
      rng toy_problem (start ())
  in
  Alcotest.(check int) "called each generation" 13 !calls

let test_domains_equivalent () =
  (* offspring are built sequentially and only their costs are
     evaluated in parallel, so the run is identical whatever the
     domain count *)
  let run domains =
    let rng = Rng.create 11 in
    let best, trace =
      Es.run
        { params with Es.max_generations = 60; domains }
        rng toy_problem (start ())
    in
    (best.Es.cost, best.Es.solution, trace)
  in
  let c1, s1, t1 = run 1 and c4, s4, t4 = run 4 in
  Alcotest.(check (float 0.0)) "same best cost" c1 c4;
  Alcotest.(check bool) "same best solution" true (s1 = s4);
  Alcotest.(check bool) "same trace" true (t1 = t4)

let test_domains_validation () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "domains < 1" true
    (try
       ignore (Es.run { params with Es.domains = 0 } rng toy_problem (start ()));
       false
     with Invalid_argument _ -> true)

let test_aging_turnover () =
  (* with omega = 1 every parent dies after one generation, so the run
     still progresses purely on children *)
  let rng = Rng.create 9 in
  let best, _ =
    Es.run { params with Es.omega = 1; max_generations = 300 } rng toy_problem
      (start ())
  in
  Alcotest.(check bool) "still converges" true (best.Es.cost <= 5.0)

let tests =
  [
    Alcotest.test_case "converges" `Quick test_converges;
    Alcotest.test_case "best monotone" `Quick test_best_cost_monotone;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "inputs not mutated" `Quick test_inputs_not_mutated;
    Alcotest.test_case "stall stops early" `Quick test_stall_stops_early;
    Alcotest.test_case "param validation" `Quick test_param_validation;
    Alcotest.test_case "validate = run's check" `Quick test_validate_matches_run;
    Alcotest.test_case "generation callback" `Quick test_on_generation_callback;
    Alcotest.test_case "aging turnover" `Quick test_aging_turnover;
    Alcotest.test_case "domains equivalent" `Quick test_domains_equivalent;
    Alcotest.test_case "domains validation" `Quick test_domains_validation;
  ]
