module Charac = Iddq_analysis.Charac
module Activity = Iddq_analysis.Activity
module Switching = Iddq_analysis.Switching
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Pattern_gen = Iddq_patterns.Pattern_gen
module Rng = Iddq_util.Rng

let make circuit = Charac.make ~library:Library.default circuit

let test_needs_two_vectors () =
  let ch = make (Iscas.c17 ()) in
  Alcotest.check_raises "one vector rejected"
    (Invalid_argument "Activity.measure: need at least two vectors") (fun () ->
      ignore
        (Activity.measure ch ~gates:[| 0 |]
           ~vectors:[| [| true; true; true; true; true |] |]))

let test_wrong_width_rejected () =
  (* C17 has five inputs: a vector one input short, or one too long,
     must be rejected rather than padded or truncated *)
  let ch = make (Iscas.c17 ()) in
  let ok = [| true; false; true; false; true |] in
  let rejects label vectors =
    Alcotest.check_raises label
      (Invalid_argument "Logic_sim.eval: input vector length mismatch") (fun () ->
        ignore (Activity.measure ch ~gates:[| 0; 1 |] ~vectors))
  in
  rejects "first vector one input short" [| [| true; false; true; false |]; ok |];
  rejects "later vector one input long" [| ok; Array.append ok [| true |] |]

let test_chain_full_toggle () =
  (* flipping the single input of a NOT-chain toggles every gate *)
  let circuit = Generator.chain ~length:6 () in
  let ch = make circuit in
  let gates = Array.init 6 Fun.id in
  let t =
    Activity.measure ch ~gates ~vectors:[| [| false |]; [| true |] |]
  in
  Alcotest.(check int) "all gates toggled" 6 t.Activity.toggles_per_pair.(0);
  (* each chain gate switches alone in its slot: the realized max is
     exactly one NOT-gate transient, matching the estimator *)
  Alcotest.(check (float 1e-15)) "realized = estimated for a chain"
    (Switching.max_transient_current ch gates)
    t.Activity.realized_max;
  Alcotest.(check (float 1e-6)) "pessimism ratio 1" 1.0
    (Activity.pessimism_ratio ch ~gates t)

let test_constant_vectors_no_activity () =
  let circuit = Generator.chain ~length:4 () in
  let ch = make circuit in
  let gates = Array.init 4 Fun.id in
  let t =
    Activity.measure ch ~gates ~vectors:[| [| true |]; [| true |]; [| true |] |]
  in
  Alcotest.(check (float 0.0)) "no realized current" 0.0 t.Activity.realized_max;
  Alcotest.(check int) "no toggles" 0 t.Activity.toggles_per_pair.(0);
  Alcotest.(check bool) "ratio infinite" true
    (Activity.pessimism_ratio ch ~gates t = infinity)

let test_estimator_upper_bounds_realization () =
  let rng = Rng.create 8 in
  let circuit =
    Generator.layered_dag ~rng ~name:"t" ~num_inputs:12 ~num_outputs:6
      ~num_gates:150 ~depth:12 ()
  in
  let ch = make circuit in
  let gates = Array.init 150 Fun.id in
  let vectors = Pattern_gen.random ~rng circuit ~count:32 in
  let t = Activity.measure ch ~gates ~vectors in
  Alcotest.(check bool) "estimate >= realized" true
    (Switching.max_transient_current ch gates >= t.Activity.realized_max -. 1e-15);
  Alcotest.(check bool) "ratio >= 1" true
    (Activity.pessimism_ratio ch ~gates t >= 1.0 -. 1e-9)

let qcheck_estimator_upper_bound =
  QCheck.Test.make
    ~name:"pessimistic estimator upper-bounds every realized profile"
    ~count:20
    QCheck.(pair (int_range 20 80) (int_range 1 100000))
    (fun (gates, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:8 ~num_outputs:4
          ~num_gates:gates ~depth:(1 + (gates / 10)) ()
      in
      let ch = make circuit in
      let group =
        Array.of_list
          (List.filter (fun _ -> Rng.bool rng) (List.init gates Fun.id))
      in
      if Array.length group = 0 then true
      else begin
        let vectors = Pattern_gen.random ~rng circuit ~count:12 in
        let t = Activity.measure ch ~gates:group ~vectors in
        let estimated = Switching.current_profile ch group in
        (* per-slot domination, not just the max *)
        Array.for_all Fun.id
          (Array.mapi
             (fun slot realized -> realized <= estimated.(slot) +. 1e-15)
             t.Activity.realized_profile)
      end)

let tests =
  [
    Alcotest.test_case "needs two vectors" `Quick test_needs_two_vectors;
    Alcotest.test_case "wrong-width vectors rejected" `Quick test_wrong_width_rejected;
    Alcotest.test_case "chain full toggle" `Quick test_chain_full_toggle;
    Alcotest.test_case "constant vectors" `Quick test_constant_vectors_no_activity;
    Alcotest.test_case "estimator upper bound" `Quick
      test_estimator_upper_bounds_realization;
    QCheck_alcotest.to_alcotest qcheck_estimator_upper_bound;
  ]
