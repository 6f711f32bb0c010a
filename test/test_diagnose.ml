(* The diagnosis subsystem: signature ranking, ambiguity classes,
   diagnosability, and the noise model (DESIGN.md §11). *)

module Diagnose = Iddq_diagnose.Diagnose
module Fault = Iddq_defects.Fault
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Standard = Iddq_baseline.Standard
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Library = Iddq_celllib.Library
module Pattern_gen = Iddq_patterns.Pattern_gen
module Bitvec = Iddq_util.Bitvec
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
    (* below threshold: silent however often activated *)
    { Fault.fault = Fault.Floating_gate (node "19"); defect_current = 1e-9 };
  ]

let engine () =
  Diagnose.build (partition ())
    ~vectors:(Pattern_gen.exhaustive c17)
    ~faults:(some_faults ())

(* A larger engine on a C432 stand-in (by default) with a k-module
   uniform split. *)
let big_engine ?(circuit = Iscas.c432_like) ?(seed = 7) ?(k = 4)
    ?(defects = 120) ?(vectors = 96) () =
  let circuit = circuit () in
  let ch = Charac.make ~library:Library.default circuit in
  let n = Charac.num_gates ch in
  let p = Partition.create ch ~assignment:(Array.init n (fun g -> g mod k)) in
  let rng = Rng.create seed in
  let faults =
    Fault.random_population ~rng circuit ~count:defects ~defect_current:2e-6
  in
  let vs = Pattern_gen.random ~rng circuit ~count:vectors in
  Diagnose.build p ~vectors:vs ~faults

let test_build_basics () =
  let d = engine () in
  Alcotest.(check int) "faults" 4 (Diagnose.num_faults d);
  Alcotest.(check int) "modules" 2 (Diagnose.num_modules d);
  Alcotest.(check int) "vectors" 32 (Diagnose.num_vectors d);
  Alcotest.(check (array int)) "module ids" [| 0; 1 |] (Diagnose.module_ids d);
  Alcotest.(check bool) "oxide short detectable" true (Diagnose.detectable d 0);
  Alcotest.(check bool) "silent fault undetectable" false
    (Diagnose.detectable d 3)

let test_predicted_shape () =
  let d = engine () in
  let s = Diagnose.predicted d 0 in
  Alcotest.(check int) "rows" 2 (Array.length s.Diagnose.fails);
  Alcotest.(check int) "row length" 32 (Bitvec.length s.Diagnose.fails.(0));
  (* fails only at the fault's own module *)
  let m = Diagnose.fault_module d 0 in
  Alcotest.(check bool) "own module fails" false
    (Bitvec.is_empty s.Diagnose.fails.(m));
  Alcotest.(check bool) "other module silent" true
    (Bitvec.is_empty s.Diagnose.fails.(1 - m))

(* Noiseless observation of any fault: every distance-0 candidate is in
   the true ambiguity class (structurally: distance 0 iff identical
   predicted signature iff same class), and the ranking puts it
   first. *)
let test_exact_rank_recovers_class () =
  let d = engine () in
  for f = 0 to Diagnose.num_faults d - 1 do
    let ranked = Diagnose.rank d (Diagnose.predicted d f) in
    Alcotest.(check bool) "some candidate" true (ranked <> []);
    List.iter
      (fun (c : Diagnose.candidate) ->
        Alcotest.(check int) "distance 0" 0 c.Diagnose.distance;
        Alcotest.(check int)
          (Printf.sprintf "fault %d candidate %d in true class" f
             c.Diagnose.fault)
          (Diagnose.class_of d f) c.Diagnose.class_id)
      ranked
  done

let qcheck_exact_rank_recovers_class_big =
  QCheck.Test.make ~name:"noiseless top candidate is the true class (C432)"
    ~count:10
    QCheck.(int_range 1 100000)
    (fun seed ->
      let d = big_engine ~seed () in
      let faults = Diagnose.num_faults d in
      let ok = ref true in
      for f = 0 to faults - 1 do
        if Diagnose.detectable d f then
          match Diagnose.rank d (Diagnose.predicted d f) with
          | best :: _ ->
            if best.Diagnose.class_id <> Diagnose.class_of d f then ok := false
          | [] -> ok := false
      done;
      !ok)

(* Hamming distance against a naive per-bit count over the full
   modules x vectors grid. *)
let naive_distance d (s : Diagnose.signature) f =
  let p = Diagnose.predicted d f in
  let total = ref 0 in
  Array.iteri
    (fun m row ->
      for v = 0 to Diagnose.num_vectors d - 1 do
        if Bitvec.get row v <> Bitvec.get p.Diagnose.fails.(m) v then
          incr total
      done)
    s.Diagnose.fails;
  !total

let qcheck_distance_matches_naive =
  let d = engine () in
  QCheck.Test.make ~name:"packed distance = naive per-bit Hamming" ~count:100
    QCheck.(pair (int_range 1 100000) (int_range 0 100))
    (fun (seed, density) ->
      let rng = Rng.create seed in
      let fails =
        Array.init (Diagnose.num_modules d) (fun _ ->
            let row = Bitvec.create (Diagnose.num_vectors d) in
            for v = 0 to Diagnose.num_vectors d - 1 do
              if Rng.int rng 101 < density then Bitvec.set row v
            done;
            row)
      in
      let s = { Diagnose.n_vectors = Diagnose.num_vectors d; fails } in
      List.for_all
        (fun f -> Diagnose.distance d s f = naive_distance d s f)
        (List.init (Diagnose.num_faults d) Fun.id))

let test_ambiguity_classes_partition_faults () =
  let d = big_engine () in
  let n = Diagnose.num_faults d in
  let seen = Array.make n 0 in
  for c = 0 to Diagnose.num_classes d - 1 do
    let members = Diagnose.class_members d c in
    Alcotest.(check bool) "non-empty class" true (Array.length members > 0);
    Array.iteri
      (fun i f ->
        seen.(f) <- seen.(f) + 1;
        Alcotest.(check int) "member's class" c (Diagnose.class_of d f);
        if i > 0 then
          Alcotest.(check bool) "ascending members" true (f > members.(i - 1)))
      members
  done;
  Array.iter (fun count -> Alcotest.(check int) "exactly one class" 1 count) seen

(* Two faults share a class iff their predicted signatures are equal. *)
let test_classes_iff_equal_signatures () =
  let d = engine () in
  let equal_sig a b =
    let sa = Diagnose.predicted d a and sb = Diagnose.predicted d b in
    Array.for_all2 Bitvec.equal sa.Diagnose.fails sb.Diagnose.fails
  in
  for a = 0 to Diagnose.num_faults d - 1 do
    for b = 0 to Diagnose.num_faults d - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "faults %d,%d" a b)
        (equal_sig a b)
        (Diagnose.class_of d a = Diagnose.class_of d b)
    done
  done

let test_silent_class () =
  let d = engine () in
  match Diagnose.silent_class d with
  | None -> Alcotest.fail "expected a silent class (fault 3 is sub-threshold)"
  | Some c ->
    Alcotest.(check (array int)) "only the sub-threshold fault" [| 3 |]
      (Diagnose.class_members d c)

let test_diagnosability_summary () =
  let d = big_engine () in
  let s = Diagnose.diagnosability d in
  Alcotest.(check int) "faults" (Diagnose.num_faults d) s.Diagnose.faults;
  Alcotest.(check int) "classes" (Diagnose.num_classes d) s.Diagnose.classes;
  (* recompute both metrics from the class sizes *)
  let sizes =
    List.init (Diagnose.num_classes d) (fun c ->
        Array.length (Diagnose.class_members d c))
  in
  let n = float_of_int s.Diagnose.faults in
  let expected =
    List.fold_left (fun acc k -> acc +. (float_of_int (k * k) /. n)) 0. sizes
  in
  let entropy =
    List.fold_left
      (fun acc k ->
        let p = float_of_int k /. n in
        acc -. (p *. (log p /. log 2.)))
      0. sizes
  in
  Alcotest.(check (float 1e-9)) "expected ambiguity" expected
    s.Diagnose.expected_ambiguity;
  Alcotest.(check (float 1e-9)) "entropy" entropy s.Diagnose.entropy_bits;
  Alcotest.(check int) "max class"
    (List.fold_left max 0 sizes)
    s.Diagnose.max_class;
  Alcotest.(check (float 1e-9)) "c6 = log expected ambiguity" (log expected)
    (Diagnose.c6_diagnosability d);
  Alcotest.(check bool) "expected ambiguity >= 1" true (expected >= 1.0)

let test_noiseless_accuracy_perfect () =
  let d = big_engine () in
  let acc = Diagnose.measure_accuracy ~rng:(Rng.create 11) ~trials:40 d in
  Alcotest.(check int) "trials" 40 acc.Diagnose.trials;
  Alcotest.(check (float 0.0)) "top-1 class" 1.0 acc.Diagnose.top1_class;
  Alcotest.(check (float 0.0)) "top-1 module" 1.0 acc.Diagnose.top1_module;
  Alcotest.(check (float 0.0)) "top-k module" 1.0 acc.Diagnose.topk_module

let test_noisy_accuracy_reasonable () =
  let d = big_engine ~vectors:128 () in
  let acc =
    Diagnose.measure_accuracy ~rng:(Rng.create 11) ~epsilon:0.02 ~top_k:3
      ~trials:40 d
  in
  Alcotest.(check bool)
    (Printf.sprintf "top-3 module %.2f >= 0.9" acc.Diagnose.topk_module)
    true
    (acc.Diagnose.topk_module >= 0.9);
  Alcotest.(check bool) "top-1 module below or equal top-3" true
    (acc.Diagnose.top1_module <= acc.Diagnose.topk_module)

(* The diagnosis gate on the ISCAS85 grid of bench/main.exe's
   [diagnose] experiment ({!Experiments.diagnose_grid}: the
   C432/C880/C1908/C3540 stand-ins x uniform 2/4/8/16-module
   partitions, 40 trials of each kind): noiseless exact matching puts
   the true defect in the top ambiguity class on every trial, and with
   every pass/fail cell flipped at 2% the top-3 module accuracy
   aggregated over the grid stays >= 0.9. *)
let test_iscas_grid_gate () =
  let rows = Experiments.diagnose_grid () in
  List.iter
    (fun (r : Experiments.diagnose_row) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s, %d modules: noiseless top-1 class"
           r.Experiments.circuit r.Experiments.modules)
        1.0 r.Experiments.exact.Diagnose.top1_class)
    rows;
  let trials =
    List.fold_left
      (fun acc (r : Experiments.diagnose_row) ->
        acc + r.Experiments.noisy.Diagnose.trials)
      0 rows
  in
  let rate = Experiments.noisy_topk_rate rows in
  Alcotest.(check bool)
    (Printf.sprintf "noisy top-3 module %.3f >= 0.9 over %d trials" rate
       trials)
    true (rate >= 0.9)

(* In noisy mode the log-likelihood must decrease as distance grows —
   the monotonicity that makes Hamming ranking = ML ranking. *)
let test_noisy_loglik_monotone () =
  let d = big_engine () in
  let rng = Rng.create 5 in
  let truth = 0 in
  let obs = Diagnose.observe_noisy ~rng ~epsilon:0.05 d truth in
  let ranked = Diagnose.rank ~mode:(Diagnose.Noisy 0.05) d obs in
  Alcotest.(check int) "all candidates kept" (Diagnose.num_faults d)
    (List.length ranked);
  let rec check_pairs = function
    | (a : Diagnose.candidate) :: (b : Diagnose.candidate) :: rest ->
      Alcotest.(check bool) "distance ascending" true
        (a.Diagnose.distance <= b.Diagnose.distance);
      Alcotest.(check bool) "log-likelihood descending" true
        (a.Diagnose.log_likelihood >= b.Diagnose.log_likelihood -. 1e-9);
      check_pairs (b :: rest)
    | _ -> ()
  in
  check_pairs ranked

let test_validation () =
  let d = engine () in
  let invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "epsilon 0.5 rejected" true
    (invalid (fun () ->
         Diagnose.rank ~mode:(Diagnose.Noisy 0.5) d (Diagnose.predicted d 0)));
  Alcotest.(check bool) "epsilon 0 rejected in Noisy" true
    (invalid (fun () ->
         Diagnose.rank ~mode:(Diagnose.Noisy 0.0) d (Diagnose.predicted d 0)));
  Alcotest.(check bool) "negative epsilon rejected" true
    (invalid (fun () ->
         ignore (Diagnose.observe_noisy ~rng:(Rng.create 1) ~epsilon:(-0.1) d 0)));
  let wrong_shape =
    {
      Diagnose.n_vectors = 32;
      fails = [| Bitvec.create 32 |] (* one module instead of two *);
    }
  in
  Alcotest.(check bool) "shape mismatch rejected" true
    (invalid (fun () -> Diagnose.rank d wrong_shape))

let test_top_modules_dedup () =
  let d = big_engine () in
  let obs = Diagnose.predicted d 0 in
  let mods = Diagnose.top_modules ~mode:(Diagnose.Noisy 0.01) d obs in
  Alcotest.(check bool) "at most num_modules entries" true
    (List.length mods <= Diagnose.num_modules d);
  let sorted = List.sort_uniq compare mods in
  Alcotest.(check int) "no duplicates" (List.length mods) (List.length sorted);
  match mods with
  | first :: _ ->
    Alcotest.(check int) "noiseless-consistent best module"
      (Diagnose.module_ids d).(Diagnose.fault_module d 0)
      first
  | [] -> Alcotest.fail "no modules ranked"

(* [rank] against its definition: every fault with its distance,
   sorted by (distance, index), then only distance 0 kept in [Exact]. *)
let rank_oracle mode d s =
  let cells = float_of_int (Diagnose.num_modules d * Diagnose.num_vectors d) in
  List.init (Diagnose.num_faults d) (fun f -> (Diagnose.distance d s f, f))
  |> List.sort compare
  |> List.filter (fun (dist, _) ->
         match mode with Diagnose.Exact -> dist = 0 | Diagnose.Noisy _ -> true)
  |> List.map (fun (dist, f) ->
         {
           Diagnose.fault = f;
           class_id = Diagnose.class_of d f;
           distance = dist;
           log_likelihood =
             (match mode with
             | Diagnose.Exact -> 0.
             | Diagnose.Noisy e ->
               let x = float_of_int dist in
               ((cells -. x) *. log (1. -. e)) +. (x *. log e));
         })

let qcheck_rank_matches_oracle =
  let engines = lazy [| big_engine (); big_engine ~seed:3 ~k:8 () |] in
  QCheck.Test.make ~name:"rank = sort-all-then-filter oracle" ~count:60
    QCheck.(triple (int_range 1 100000) (int_range 0 3) bool)
    (fun (seed, noise, exact) ->
      let d = (Lazy.force engines).(seed mod 2) in
      let rng = Rng.create seed in
      let truth = Rng.int rng (Diagnose.num_faults d) in
      (* noise 0 observes the prediction itself, so Exact keeps some *)
      let obs =
        if noise = 0 then Diagnose.predicted d truth
        else
          Diagnose.observe_noisy ~rng ~epsilon:(0.01 *. float_of_int noise) d
            truth
      in
      let mode = if exact then Diagnose.Exact else Diagnose.Noisy 0.02 in
      let ranked = Diagnose.rank ~mode d obs in
      let mods = Diagnose.top_modules ~mode d obs in
      let seen = Hashtbl.create 8 in
      let oracle_mods =
        List.filter_map
          (fun (c : Diagnose.candidate) ->
            let m = (Diagnose.module_ids d).(Diagnose.fault_module d c.fault) in
            if Hashtbl.mem seen m then None
            else begin
              Hashtbl.add seen m ();
              Some m
            end)
          ranked
      in
      ranked = rank_oracle mode d obs && mods = oracle_mods)

(* [measure_accuracy] pinned on two stand-ins, two seeds, noiseless and
   at 2% flips: the three rates as float bit patterns. *)
let test_accuracy_pinned () =
  let pinned =
    [
      ("C432", Iscas.c432_like, 1, 0.,
        "4607182418800017408 4607182418800017408 4607182418800017408");
      ("C432", Iscas.c432_like, 1, 0.02,
        "4606641986844732948 4607182418800017408 4607182418800017408");
      ("C432", Iscas.c432_like, 2, 0.,
        "4607182418800017408 4607182418800017408 4607182418800017408");
      ("C432", Iscas.c432_like, 2, 0.02,
        "4607002274814922588 4607182418800017408 4607182418800017408");
      ("C1908", Iscas.c1908_like, 1, 0.,
        "4607182418800017408 4607182418800017408 4607182418800017408");
      ("C1908", Iscas.c1908_like, 1, 0.02,
        "4607002274814922588 4607002274814922588 4607182418800017408");
      ("C1908", Iscas.c1908_like, 2, 0.,
        "4607182418800017408 4607182418800017408 4607182418800017408");
      ("C1908", Iscas.c1908_like, 2, 0.02,
        "4607002274814922588 4607182418800017408 4607182418800017408")
    ]
  in
  List.iter
    (fun (name, circuit, seed, epsilon, expected) ->
      let d =
        big_engine ~circuit ~seed ~k:16 ~defects:200 ~vectors:8 ()
      in
      let a =
        Diagnose.measure_accuracy ~rng:(Rng.create seed) ~epsilon ~trials:50 d
      in
      let bits x = Int64.to_string (Int64.bits_of_float x) in
      let got =
        String.concat " "
          [ bits a.Diagnose.top1_class; bits a.Diagnose.top1_module;
            bits a.Diagnose.topk_module ]
      in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d epsilon %g" name seed epsilon)
        expected got)
    pinned

let tests =
  [
    Alcotest.test_case "build basics" `Quick test_build_basics;
    Alcotest.test_case "predicted shape" `Quick test_predicted_shape;
    Alcotest.test_case "exact rank recovers class" `Quick
      test_exact_rank_recovers_class;
    QCheck_alcotest.to_alcotest qcheck_exact_rank_recovers_class_big;
    QCheck_alcotest.to_alcotest qcheck_distance_matches_naive;
    Alcotest.test_case "classes partition faults" `Quick
      test_ambiguity_classes_partition_faults;
    Alcotest.test_case "classes iff equal signatures" `Quick
      test_classes_iff_equal_signatures;
    Alcotest.test_case "silent class" `Quick test_silent_class;
    Alcotest.test_case "diagnosability summary" `Quick
      test_diagnosability_summary;
    Alcotest.test_case "noiseless accuracy = 1" `Quick
      test_noiseless_accuracy_perfect;
    Alcotest.test_case "noisy accuracy >= 0.9" `Quick
      test_noisy_accuracy_reasonable;
    Alcotest.test_case "noisy log-likelihood monotone" `Quick
      test_noisy_loglik_monotone;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "ISCAS85 grid gate" `Quick test_iscas_grid_gate;
    Alcotest.test_case "top modules dedup" `Quick test_top_modules_dedup;
    QCheck_alcotest.to_alcotest qcheck_rank_matches_oracle;
    Alcotest.test_case "accuracy pinned" `Quick test_accuracy_pinned;
  ]
