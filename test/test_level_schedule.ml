(* The circuit's levelization — levels, level-major gate order and
   level offsets, built once by [Circuit] construction — against a
   from-scratch recomputation kept here, on every constructor: the
   layered-DAG generator (random DAGs and the ISCAS85 stand-ins),
   [Builder.freeze] (the structured generators), and the Bench_io
   round trip. *)

module Rng = Iddq_util.Rng
module Circuit = Iddq_netlist.Circuit
module Generator = Iddq_netlist.Generator
module Iscas = Iddq_netlist.Iscas
module Bench_io = Iddq_netlist.Bench_io

(* ---------------- reference levelization ----------------------------- *)

(* Longest input-to-node path by memoized recursion over the fanins —
   no reliance on the id order being topological — and the gates
   sorted by (level, id). *)
let reference_levels c =
  let n = Circuit.num_nodes c in
  let memo = Array.make n (-1) in
  let rec level id =
    if memo.(id) < 0 then
      memo.(id) <-
        (if Circuit.is_input c id then 0
         else
           1 + Array.fold_left (fun d src -> max d (level src)) 0
                 (Circuit.fanins c id));
    memo.(id)
  in
  let levels = Array.init n level in
  let gates =
    List.init (Circuit.num_gates c) (Circuit.node_of_gate c)
    |> List.stable_sort (fun a b -> compare levels.(a) levels.(b))
  in
  (levels, Array.of_list gates)

(* [Ok ()] when the circuit's levelization equals the reference and
   [Circuit.validate] accepts it. *)
let check_levels c =
  let levels, order = reference_levels c in
  let depth = Array.fold_left max 0 levels in
  let offsets = Circuit.Csr.level_offsets c in
  let widths_ok =
    Array.length offsets = depth + 1
    && offsets.(0) = 0
    && List.for_all
         (fun l ->
           offsets.(l) - offsets.(l - 1)
           = Array.fold_left
               (fun k id -> if levels.(id) = l then k + 1 else k)
               0 order)
         (List.init depth (fun l -> l + 1))
  in
  if Circuit.Csr.levels c <> levels then Error "levels differ"
  else if Circuit.depth c <> depth then Error "depth differs"
  else if Circuit.Csr.level_order c <> order then Error "level order differs"
  else if not widths_ok then Error "level offsets differ"
  else Circuit.validate c

(* A circuit as built and after the netlist round trip. *)
let constructors c =
  let reparse what parse print =
    match parse (print c) with
    | Ok c' -> (what, c')
    | Error e ->
      QCheck.Test.fail_reportf "%s round trip: %s" what
        (Iddq_util.Io_error.to_string e)
  in
  [
    ("built", c);
    reparse "bench" (Bench_io.parse_string ~name:"rt") Bench_io.to_string;
  ]

(* ---------------- random layered DAGs (qcheck) ----------------------- *)

let dag_gen =
  QCheck.make
    ~print:(fun (g, s) -> Printf.sprintf "gates=%d seed=%d" g s)
    QCheck.Gen.(pair (int_range 10 200) (int_range 1 1_000_000))

let random_dag (gates, seed) =
  let rng = Rng.create seed in
  Generator.layered_dag ~rng ~name:"lvl" ~num_inputs:5 ~num_outputs:3
    ~num_gates:gates ~depth:(1 + (gates / 8)) ()

let qcheck_schedule_valid =
  QCheck.Test.make ~name:"schedule is a valid topological levelization"
    ~count:100 dag_gen (fun params ->
      List.for_all
        (fun (what, c) ->
          match check_levels c with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "%s: %s" what e)
        (constructors (random_dag params)))

let qcheck_schedule_order_properties =
  QCheck.Test.make
    ~name:"order: every prefix closed under fanins, ids ascend per level"
    ~count:60 dag_gen (fun params ->
      List.for_all
        (fun (_, c) ->
          let order = Circuit.Csr.level_order c in
          let offsets = Circuit.Csr.level_offsets c in
          (* topological: a gate's fanins are inputs or appear earlier *)
          let placed = Array.make (Circuit.num_nodes c) false in
          let topo = ref true in
          Array.iter
            (fun id ->
              Circuit.iter_fanins c id (fun src ->
                  if Circuit.is_gate c src && not placed.(src) then
                    topo := false);
              placed.(id) <- true)
            order;
          (* ascending ids inside each level; widths sum to the gates *)
          let ascending = ref true and total = ref 0 in
          for l = 1 to Circuit.depth c do
            total := !total + offsets.(l) - offsets.(l - 1);
            for k = offsets.(l - 1) + 1 to offsets.(l) - 1 do
              if order.(k - 1) >= order.(k) then ascending := false
            done
          done;
          !topo && !ascending && !total = Circuit.num_gates c)
        (constructors (random_dag params)))

(* ---------------- ISCAS85 suite and Builder circuits ----------------- *)

let test_iscas_schedules () =
  let builder_circuits =
    [
      ("cell array", Generator.cell_array ~rows:4 ~cols:6);
      ("chain", Generator.chain ~length:9 ());
      ("tree", Generator.balanced_tree ~depth:4 ());
      ("multiplier", Generator.multiplier_array ~n:4);
    ]
  in
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (what, c) ->
          match check_levels c with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s (%s): %s" name what e)
        (constructors c);
      (* inputs at level 0, every gate strictly above *)
      for id = 0 to Circuit.num_nodes c - 1 do
        let l = Circuit.level c id in
        if Circuit.is_input c id then
          Alcotest.(check int) (name ^ ": input level") 0 l
        else if l < 1 then Alcotest.failf "%s: gate %d at level %d" name id l
      done)
    (("C17", Iscas.c17 ()) :: Iscas.table1_suite () @ builder_circuits)

let test_c17_depth () =
  (* c17: NAND2 ranks {10,11} -> {16,19} -> {22,23} — logic depth 3,
     the classic sanity anchor for any levelizer *)
  List.iter
    (fun (what, c) ->
      Alcotest.(check int) (what ^ ": c17 levels") 3 (Circuit.depth c);
      Alcotest.(check int)
        (what ^ ": c17 gates") 6
        (Array.length (Circuit.Csr.level_order c));
      Alcotest.(check (array int))
        (what ^ ": c17 level offsets") [| 0; 2; 4; 6 |]
        (Circuit.Csr.level_offsets c))
    (constructors (Iscas.c17 ()))

(* A mutated borrowed array is exactly what [Circuit.validate]'s level
   checks exist to catch. *)
let test_validate_catches_drift () =
  let c = Iscas.c17 () in
  let levels = Circuit.Csr.levels c in
  let id = Circuit.node_of_gate c 3 in
  let saved = levels.(id) in
  levels.(id) <- saved + 1;
  let drifted = Circuit.validate c in
  levels.(id) <- saved;
  (match drifted with
  | Ok () -> Alcotest.fail "a drifted level validated"
  | Error _ -> ());
  let order = Circuit.Csr.level_order c in
  let a = order.(0) in
  order.(0) <- order.(1);
  let swapped = Circuit.validate c in
  order.(0) <- a;
  (match swapped with
  | Ok () -> Alcotest.fail "a duplicated order slot validated"
  | Error _ -> ());
  Alcotest.(check (result unit string)) "restored" (Ok ()) (Circuit.validate c)

(* Swapping two fanouts of one node keeps the offsets and the multiset
   of edges but breaks the ascending order the undirected graph build
   relies on. *)
let test_validate_catches_fanout_drift () =
  let c = Iscas.c17 () in
  let offsets = Circuit.Csr.fanout_offsets c in
  let targets = Circuit.Csr.fanout_targets c in
  let id = Option.get (Circuit.node_id_of_name c "11") in
  let k = offsets.(id) in
  Alcotest.(check bool) "two distinct fanouts" true
    (offsets.(id + 1) - k >= 2 && targets.(k) < targets.(k + 1));
  let swap () =
    let a = targets.(k) in
    targets.(k) <- targets.(k + 1);
    targets.(k + 1) <- a
  in
  swap ();
  let drifted = Circuit.validate c in
  swap ();
  (match drifted with
  | Ok () -> Alcotest.fail "a drifted fanout segment validated"
  | Error _ -> ());
  Alcotest.(check (result unit string)) "restored" (Ok ()) (Circuit.validate c)

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_schedule_valid;
    QCheck_alcotest.to_alcotest qcheck_schedule_order_properties;
    Alcotest.test_case "ISCAS85 schedules validate and match the reference"
      `Quick test_iscas_schedules;
    Alcotest.test_case "c17 depth anchor" `Quick test_c17_depth;
    Alcotest.test_case "validate catches a drifted levelization" `Quick
      test_validate_catches_drift;
    Alcotest.test_case "validate catches a drifted fanout segment" `Quick
      test_validate_catches_fanout_drift;
  ]
