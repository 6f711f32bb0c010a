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
   targets, what it decides, what each vector drops — pinned on the
   four stand-ins of the ATPG benchmark: any change to the search or to the drop filter shows up
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
      ( "c499_like",
        Iscas.c499_like (),
        (25, 13, 8, 46),
        57,
        "d23e4ae2f89bcefa99e1fb47665efa31" );
      ( "c1355_like",
        Iscas.c1355_like (),
        (109, 13, 140, 262),
        141,
        "d896da719f8c3ae110b46bce89e7d4e5" );
    ]

(* The ATPG loop on the ISCAS85 grid the bench's [testset] experiment
   reports ({!Experiments.testset_grid}: seed 11, 32 random vectors,
   64 backtracks): PODEM top-up never loses coverage against the
   random-only start, every minimization strategy keeps the full set's
   coverage, refined is no larger than greedy, minimization shrinks
   the set on at least 3 of the 4 circuits, and a C432 re-run
   reproduces the set. *)
let test_iscas_grid_gate () =
  let shrunk =
    List.fold_left
      (fun shrunk (row : Experiments.testset_row) ->
        let name = row.Experiments.circuit and r = row.Experiments.result in
        let random_only = row.Experiments.random_only in
        Alcotest.(check bool)
          (Printf.sprintf "%s: coverage %.4f >= random-only %.4f" name
             r.Atpg.coverage random_only.Stuck_at.coverage)
          true
          (r.Atpg.coverage >= random_only.Stuck_at.coverage -. 1e-9);
        if name = "C432" then begin
          let again =
            run_ok ~config:Experiments.testset_config (Iscas.c432_like ())
          in
          Alcotest.(check bool) "C432 re-run: same vectors" true
            (again.Atpg.all_vectors = r.Atpg.all_vectors);
          Alcotest.(check bool) "C432 re-run: same selection" true
            (again.Atpg.selected = r.Atpg.selected);
          Alcotest.(check (float 0.0)) "C432 re-run: same coverage"
            r.Atpg.coverage again.Atpg.coverage
        end;
        let m = r.Atpg.matrix in
        let full =
          if Coverage.num_faults m = 0 then 1.0
          else
            float_of_int (Coverage.num_detectable m)
            /. float_of_int (Coverage.num_faults m)
        in
        let sizes =
          List.map
            (fun (strategy, sel) ->
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s: %s keeps coverage" name
                   (Testset.strategy_to_string strategy))
                full
                (Coverage.coverage_of_selection m sel);
              (strategy, Array.length sel))
            row.Experiments.minimized
        in
        let greedy = List.assoc Atpg.Greedy sizes
        and refined = List.assoc Atpg.Refined sizes in
        Alcotest.(check bool)
          (Printf.sprintf "%s: refined %d <= greedy %d" name refined greedy)
          true (refined <= greedy);
        if List.exists (fun (_, n) -> n < r.Atpg.vectors_before) sizes
        then shrunk + 1
        else shrunk)
      0 (Experiments.testset_grid ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "minimized set smaller on %d/4 circuits (>= 3)" shrunk)
    true (shrunk >= 3)

(* The faults no vector detects, in order, read off the full detection
   matrix: a path that shares no code with the dropping
   [Stuck_at.Block]. *)
let undetected c ~vectors ~faults =
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  List.filteri (fun f _ -> Bitvec.is_empty m.Fault_sim.rows.(f)) faults

(* The loop as it was before dropping waited for a full block, kept
   as the oracle: every concretized vector is swept against the whole
   remaining list at once. *)
let eager_generate ?max_backtracks ?(budget = max_int) ~rng ?(initial = [||]) c
    faults =
  let module Podem = Iddq_atpg.Podem in
  let podem = Podem.prepare c in
  let live = ref (undetected c ~vectors:initial ~faults) in
  let added = ref [] in
  let generated = ref 0
  and untestable = ref 0
  and aborted = ref 0
  and targeted = ref 0 in
  let rec work () =
    match !live with
    | [] -> ()
    | _ when !targeted >= budget -> ()
    | fault :: rest -> begin
      incr targeted;
      match Podem.generate ?max_backtracks podem fault with
      | Podem.Untestable ->
        incr untestable;
        live := rest;
        work ()
      | Podem.Aborted ->
        incr aborted;
        live := rest;
        work ()
      | Podem.Test cube ->
        let vector = Podem.concretize ~rng cube in
        incr generated;
        added := vector :: !added;
        live := undetected c ~vectors:[| vector |] ~faults:rest;
        work ()
    end
  in
  work ();
  let vector_arr = Array.append initial (Array.of_list (List.rev !added)) in
  let total = List.length faults in
  let matrix = Stuck_at.detection_matrix c ~vectors:vector_arr ~faults in
  let detected = Coverage.num_detectable matrix in
  {
    Testset.vectors = vector_arr;
    matrix;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    efficiency =
      (if total = 0 then 1.0
       else float_of_int (detected + !untestable) /. float_of_int total);
    stats =
      {
        random = Array.length initial;
        generated = !generated;
        untestable = !untestable;
        aborted = !aborted;
        targeted = !targeted;
      };
    remaining = List.length !live;
  }

(* Both loops from the same rng state: equal vectors, stats,
   [remaining] and matrix rows, and the rng left at the same draw.
   Returns the number of vectors. *)
let same_as_eager ~what ?budget ~max_backtracks ~seed ~random c =
  let run gen =
    let rng = Rng.create seed in
    let initial = Iddq_patterns.Pattern_gen.random ~rng c ~count:random in
    let g =
      gen ~max_backtracks ?budget ~rng ~initial c
        (Stuck_at.collapsed_fault_list c)
    in
    (g, Rng.int rng 1_000_000)
  in
  let lazy_, next_lazy =
    run (fun ~max_backtracks ?budget ~rng ~initial ->
        Testset.generate ~max_backtracks ?budget ~rng ~initial)
  and eager, next_eager =
    run (fun ~max_backtracks ?budget ~rng ~initial ->
        eager_generate ~max_backtracks ?budget ~rng ~initial)
  in
  let fail field = QCheck.Test.fail_reportf "%s: %s differ" what field in
  if lazy_.Testset.vectors <> eager.Testset.vectors then fail "vectors";
  if lazy_.Testset.stats <> eager.Testset.stats then fail "stats";
  if lazy_.Testset.remaining <> eager.Testset.remaining then fail "remaining";
  if not (Fault_sim.equal lazy_.Testset.matrix eager.Testset.matrix) then
    fail "matrices";
  if next_lazy <> next_eager then fail "rng states";
  Array.length lazy_.Testset.vectors

(* The C1355 stand-in generates more than one block of vectors, so the
   loop crosses a block sweep; checked once, on the first case. *)
let c1355_crosses_a_sweep =
  lazy
    (let n =
       same_as_eager ~what:"c1355_like" ~max_backtracks:16 ~seed:42 ~random:32
         (Iscas.c1355_like ())
     in
     if n - 32 <= 64 then
       QCheck.Test.fail_reportf "c1355_like: only %d generated" (n - 32))

let qcheck_lazy_dropping_matches_eager =
  QCheck.Test.make ~name:"lazy dropping = eager loop" ~count:12
    QCheck.(
      quad (int_range 20 40) (int_range 40 160) (int_range 0 8)
        (int_range 1 100000))
    (fun (num_inputs, gates, random, seed) ->
      Lazy.force c1355_crosses_a_sweep;
      let rng = Rng.create seed in
      let c =
        Iddq_netlist.Generator.layered_dag ~rng ~name:"q" ~num_inputs
          ~num_outputs:(1 + (gates mod 5)) ~num_gates:gates
          ~depth:(2 + (gates / 10)) ()
      in
      (* 100 and 130 initial vectors drop through two and three
         blocks *)
      List.iter
        (fun random ->
          List.iter
            (fun max_backtracks ->
              List.iter
                (fun budget ->
                  ignore
                    (same_as_eager
                       ~what:
                         (Printf.sprintf "%d random, %d backtracks, budget %s"
                            random max_backtracks
                            (Option.fold ~none:"none" ~some:string_of_int
                               budget))
                       ?budget ~max_backtracks ~seed ~random c))
                [ None; Some 1; Some 7; Some 64; Some 65 ])
            [ 4; 16 ])
        (List.sort_uniq compare [ random; 0; 100; 130 ]);
      true)

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
    Alcotest.test_case "facade matrix = Stuck_at.detects" `Quick
      test_facade_matrix_matches_detects;
    Alcotest.test_case "generate trajectory pinned" `Quick
      test_generate_trajectory_pinned;
    Alcotest.test_case "ISCAS85 grid gate" `Slow test_iscas_grid_gate;
    QCheck_alcotest.to_alcotest qcheck_lazy_dropping_matches_eager;
  ]
