(* The ATPG closed loop: Coverage minimizers on hand-built and random
   matrices, and the Result-typed Atpg facade's contract. *)

module Atpg = Iddq_atpg.Atpg
module Testset = Iddq_atpg.Testset
module Coverage = Iddq_defects.Coverage
module Fault_sim = Iddq_defects.Fault_sim
module Stuck_at = Iddq_defects.Stuck_at
module Bitvec = Iddq_util.Bitvec
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Rng = Iddq_util.Rng

let matrix ~n_vectors rows_bits =
  let rows =
    Array.map
      (fun bits ->
        let row = Bitvec.create n_vectors in
        List.iter (Bitvec.set row) bits;
        row)
      (Array.of_list rows_bits)
  in
  { Fault_sim.n_vectors; rows }

let ints = Alcotest.(check (list int))
let selection sel = Array.to_list sel

(* v0 detects four faults (the greedy bait), but v1 and v2 are each the
   sole detector of a fault, and together cover everything: greedy
   keeps 3 vectors where the essential-first and refined strategies
   provably reach the 2-vector optimum. *)
let greedy_bait =
  matrix ~n_vectors:3
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1 ]; [ 2 ] ]

let test_greedy_suboptimal_on_bait () =
  ints "greedy takes the bait" [ 0; 1; 2 ]
    (selection (Coverage.compact greedy_bait));
  ints "v1,v2 are essential" [ 1; 2 ]
    (selection (Coverage.essential_vectors greedy_bait));
  ints "essential-first reaches the optimum" [ 1; 2 ]
    (selection (Coverage.minimize_essential greedy_bait));
  ints "refinement drops the bait afterwards" [ 1; 2 ]
    (selection (Coverage.minimize_refined greedy_bait))

let test_minimizers_preserve_bait_coverage () =
  List.iter
    (fun strategy ->
      Alcotest.(check (float 1e-9))
        (Testset.strategy_to_string strategy ^ " preserves coverage")
        1.0
        (Coverage.coverage_of_selection greedy_bait
           (Testset.minimize strategy greedy_bait)))
    Testset.strategies

let test_strategy_strings_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Testset.strategy_to_string s ^ " roundtrips")
        true
        (Testset.strategy_of_string (Testset.strategy_to_string s) = Some s))
    Testset.strategies;
  Alcotest.(check bool)
    "unknown strategy rejected" true
    (Testset.strategy_of_string "optimal" = None)

(* Random matrices: every strategy must preserve the full set's
   coverage, return ascending duplicate-free in-range indices, and
   refined must never exceed greedy. *)
let qcheck_minimizers_preserve_coverage =
  QCheck.Test.make
    ~name:"minimized selections preserve full-set coverage" ~count:100
    QCheck.(triple (int_range 1 40) (int_range 1 50) (int_range 1 100000))
    (fun (n_faults, n_vectors, seed) ->
      let rng = Rng.create seed in
      let m =
        {
          Fault_sim.n_vectors;
          rows =
            Array.init n_faults (fun _ ->
                let row = Bitvec.create n_vectors in
                for v = 0 to n_vectors - 1 do
                  if Rng.int rng 4 = 0 then Bitvec.set row v
                done;
                row);
        }
      in
      let full =
        if n_faults = 0 then 1.0
        else
          float_of_int (Coverage.num_detectable m) /. float_of_int n_faults
      in
      let ascending sel =
        let ok = ref true in
        Array.iteri
          (fun i v ->
            if v < 0 || v >= n_vectors then ok := false;
            if i > 0 && sel.(i - 1) >= v then ok := false)
          sel;
        !ok
      in
      let sizes =
        List.map
          (fun strategy ->
            let sel = Testset.minimize strategy m in
            if not (ascending sel) then
              QCheck.Test.fail_reportf "selection not ascending/in-range";
            let cov = Coverage.coverage_of_selection m sel in
            if Float.abs (cov -. full) > 1e-9 then
              QCheck.Test.fail_reportf "%s lost coverage: %f vs %f"
                (Testset.strategy_to_string strategy)
                cov full;
            (strategy, Array.length sel))
          Testset.strategies
      in
      List.assoc Testset.Refined sizes <= List.assoc Testset.Greedy sizes)

(* ------------------------------------------------------------------ *)
(* The facade                                                          *)
(* ------------------------------------------------------------------ *)

let c17 = Iscas.c17 ()

let run_ok ?config c =
  match Atpg.run_result ?config c with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error: %s" (Atpg.error_to_string e)

let test_facade_full_coverage_on_c17 () =
  let r = run_ok c17 in
  Alcotest.(check (float 1e-9)) "C17 is fully testable" 1.0 r.Atpg.coverage;
  Alcotest.(check (float 1e-9)) "efficiency 1.0" 1.0 r.Atpg.efficiency;
  Alcotest.(check bool)
    "minimized no larger than generated" true
    (Array.length r.Atpg.vectors <= r.Atpg.vectors_before);
  Alcotest.(check int) "selected indexes the minimized set"
    (Array.length r.Atpg.vectors)
    (Array.length r.Atpg.selected);
  Alcotest.(check int) "all_vectors is the full set" r.Atpg.vectors_before
    (Array.length r.Atpg.all_vectors);
  (* the minimized set really detects every fault *)
  let faults = Stuck_at.collapsed_fault_list c17 in
  let sim = Stuck_at.fault_simulate c17 ~vectors:r.Atpg.vectors ~faults in
  Alcotest.(check (float 1e-9))
    "minimized set re-simulates to full coverage" 1.0
    sim.Stuck_at.coverage

let test_facade_deterministic () =
  let config = Atpg.config ~seed:7 ~random_vectors:8 () in
  let a = run_ok ~config c17 and b = run_ok ~config c17 in
  Alcotest.(check bool) "same vectors" true (a.Atpg.vectors = b.Atpg.vectors);
  Alcotest.(check bool) "same selection" true
    (a.Atpg.selected = b.Atpg.selected);
  Alcotest.(check (float 0.0)) "same coverage" a.Atpg.coverage b.Atpg.coverage

let test_facade_strategies_agree_on_coverage () =
  let base = run_ok c17 in
  List.iter
    (fun strategy ->
      match Atpg.minimize_result ~strategy base.Atpg.matrix with
      | Error e -> Alcotest.failf "minimize: %s" (Atpg.error_to_string e)
      | Ok sel ->
        Alcotest.(check (float 1e-9))
          (Testset.strategy_to_string strategy ^ " preserves coverage")
          base.Atpg.coverage
          (Coverage.coverage_of_selection base.Atpg.matrix sel))
    Testset.strategies

let check_error name expected result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s" name (Atpg.error_to_string e))
      true (expected e)

let test_facade_error_paths () =
  check_error "empty fault list"
    (fun e -> e = Atpg.Empty_fault_list)
    (Atpg.generate_result c17 []);
  check_error "zero backtracks"
    (function Atpg.Bad_config _ -> true | _ -> false)
    (Atpg.run_result ~config:(Atpg.config ~max_backtracks:0 ()) c17);
  check_error "zero budget"
    (function Atpg.Bad_config _ -> true | _ -> false)
    (Atpg.run_result ~config:(Atpg.config ~budget:0 ()) c17);
  check_error "negative random vectors"
    (function Atpg.Bad_config _ -> true | _ -> false)
    (Atpg.run_result ~config:(Atpg.config ~random_vectors:(-1) ()) c17);
  check_error "stem fault out of range"
    (function Atpg.Fault_mismatch _ -> true | _ -> false)
    (Atpg.generate_result c17 [ Stuck_at.Stem (Circuit.num_nodes c17, true) ]);
  check_error "pin fault on an input node"
    (function Atpg.Fault_mismatch _ -> true | _ -> false)
    (Atpg.generate_result c17
       [ Stuck_at.Pin { gate = 0; pin = 0; value = true } ]);
  check_error "pin index beyond the gate's fanins"
    (function Atpg.Fault_mismatch _ -> true | _ -> false)
    (Atpg.generate_result c17
       [
         Stuck_at.Pin
           { gate = Circuit.num_inputs c17; pin = 99; value = false };
       ])

let test_facade_budget_exhaustion () =
  (* no random vectors, a one-target budget: C17's 22 collapsed faults
     cannot all be targeted *)
  let config = Atpg.config ~budget:1 ~random_vectors:0 () in
  match Atpg.run_result ~config c17 with
  | Error (Atpg.Budget_exhausted { targeted; remaining }) ->
    Alcotest.(check int) "one target attempted" 1 targeted;
    Alcotest.(check bool) "faults remain" true (remaining > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Atpg.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Budget_exhausted"

let test_facade_exn_wrappers () =
  (* the raising derivative renders the same structured error *)
  (match Atpg.generate_exn c17 [] with
  | exception Failure msg ->
    Alcotest.(check string) "message is the rendered error"
      (Atpg.error_to_string Atpg.Empty_fault_list)
      msg
  | _ -> Alcotest.fail "expected Failure");
  let r = Atpg.run_exn c17 in
  Alcotest.(check (float 1e-9)) "run_exn succeeds" 1.0 r.Atpg.coverage

let test_facade_matrix_matches_detects () =
  (* the packed matrix the minimizers run on, bit for bit against the
     scalar single-vector oracle *)
  let config = Atpg.config ~seed:3 ~random_vectors:16 () in
  let r = run_ok ~config c17 in
  let faults = Stuck_at.collapsed_fault_list c17 in
  List.iteri
    (fun f fault ->
      Array.iteri
        (fun v vector ->
          Alcotest.(check bool)
            (Printf.sprintf "fault %d, vector %d" f v)
            (Stuck_at.detects c17 fault vector)
            (Bitvec.get r.Atpg.matrix.Fault_sim.rows.(f) v))
        r.Atpg.all_vectors)
    faults

(* The generation loop's whole trajectory — which faults PODEM
   targets, what it decides, what each vector drops — pinned on two
   stand-ins: any change to the search or to the drop filter shows up
   in the counts or in the digest of the vectors. *)
let vectors_digest vectors =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v ->
      Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) v;
      Buffer.add_char b '\n')
    vectors;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_generate_trajectory_pinned () =
  List.iter
    (fun (name, c, (generated, untestable, aborted, targeted), n, digest) ->
      let rng = Rng.create 42 in
      let initial = Iddq_patterns.Pattern_gen.random ~rng c ~count:32 in
      let g =
        Testset.generate ~max_backtracks:16 ~rng ~initial c
          (Stuck_at.collapsed_fault_list c)
      in
      let s = g.Testset.stats in
      Alcotest.(check (list int))
        (name ^ " random/generated/untestable/aborted/targeted")
        [ 32; generated; untestable; aborted; targeted ]
        [ s.random; s.generated; s.untestable; s.aborted; s.targeted ];
      Alcotest.(check int) (name ^ " vectors") n (Array.length g.Testset.vectors);
      Alcotest.(check string) (name ^ " vectors digest") digest
        (vectors_digest g.Testset.vectors))
    [
      ( "c432_like",
        Iscas.c432_like (),
        (31, 76, 195, 302),
        63,
        "79c70d253b96586e134830e022afdc45" );
      ( "c880_like",
        Iscas.c880_like (),
        (55, 75, 593, 723),
        87,
        "c5587e05f04678864e48c546235e4ac0" );
    ]

let tests =
  [
    Alcotest.test_case "greedy provably non-optimal matrix" `Quick
      test_greedy_suboptimal_on_bait;
    Alcotest.test_case "bait minimizers preserve coverage" `Quick
      test_minimizers_preserve_bait_coverage;
    Alcotest.test_case "strategy strings roundtrip" `Quick
      test_strategy_strings_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_minimizers_preserve_coverage;
    Alcotest.test_case "facade: full coverage on C17" `Quick
      test_facade_full_coverage_on_c17;
    Alcotest.test_case "facade: deterministic under a seed" `Quick
      test_facade_deterministic;
    Alcotest.test_case "facade: strategy sweep preserves coverage" `Quick
      test_facade_strategies_agree_on_coverage;
    Alcotest.test_case "facade: structured error paths" `Quick
      test_facade_error_paths;
    Alcotest.test_case "facade: budget exhaustion" `Quick
      test_facade_budget_exhaustion;
    Alcotest.test_case "facade: _exn wrappers" `Quick test_facade_exn_wrappers;
    Alcotest.test_case "facade matrix = Stuck_at.detects" `Quick
      test_facade_matrix_matches_detects;
    Alcotest.test_case "generate trajectory pinned" `Quick
      test_generate_trajectory_pinned;
  ]
