(* The shape claims of EXPERIMENTS.md, each bounded on the experiment
   function bench/main.exe prints it from.  One test per claim; the
   claim index in EXPERIMENTS.md names each of them. *)

module E = Experiments
module Pipeline = Iddq.Pipeline
module Cost = Iddq_core.Cost
module Diagnose = Iddq_diagnose.Diagnose

let rec strictly cmp = function
  | a :: (b :: _ as tl) -> cmp a b && strictly cmp tl
  | _ -> true

(* Ablation A: standard is the outlier.  Every other partitioner beats
   it both on cost and on sensor area. *)
let test_ablation_opt () =
  let results = E.ablation_opt () in
  let standard = List.assoc Pipeline.Standard results in
  List.iter
    (fun (m, (r : Pipeline.t)) ->
      if m <> Pipeline.Standard then begin
        let name = Pipeline.method_to_string m in
        let b = r.Pipeline.breakdown
        and s = standard.Pipeline.breakdown in
        Alcotest.(check bool)
          (Printf.sprintf "%s cost %.2f < standard %.2f" name b.Cost.penalized
             s.Cost.penalized)
          true
          (b.Cost.penalized < s.Cost.penalized);
        Alcotest.(check bool)
          (Printf.sprintf "%s area %.3e < standard %.3e" name
             b.Cost.sensor_area s.Cost.sensor_area)
          true
          (b.Cost.sensor_area < s.Cost.sensor_area)
      end)
    results

(* Ablation B: the delay-heavy mix (w2 = 1e7) buys a lower delay
   overhead than the paper mix, paid for in sensor area (9.6e-5 % at
   2.162e7 against 1.33e-3 % at 1.376e7 as measured).  The paper row
   is the shared evolved C1908 run, so one new ES run. *)
let test_ablation_weights () =
  let paper = (E.evolved "C1908").Pipeline.breakdown
  and heavy = (E.weight_run "delay-heavy").Pipeline.breakdown in
  Alcotest.(check bool)
    (Printf.sprintf "delay-heavy delay overhead %.3e < paper %.3e"
       heavy.Cost.c2_delay paper.Cost.c2_delay)
    true
    (heavy.Cost.c2_delay < paper.Cost.c2_delay);
  Alcotest.(check bool)
    (Printf.sprintf "delay-heavy area %.4e > paper %.4e" heavy.Cost.sensor_area
       paper.Cost.sensor_area)
    true
    (heavy.Cost.sensor_area > paper.Cost.sensor_area)

(* Ablation C at 150 generations: pure Monte-Carlo search (lambda = 0,
   chi = 9) ends costlier than the default mu=4 lambda=7 chi=2 (187.91
   against 187.69 as measured).  The two independent runs share no
   state, so the second one runs on its own domain. *)
let test_ablation_es () =
  let cost label = (E.es_run label).Pipeline.breakdown.Cost.penalized in
  let other = Domain.spawn (fun () -> cost "only Monte-Carlo (lambda=0)") in
  let default = cost "mu=4 lambda=7 chi=2 (default)" in
  let monte_carlo = Domain.join other in
  Alcotest.(check bool)
    (Printf.sprintf "lambda=0 cost %.2f > default %.2f" monte_carlo default)
    true (monte_carlo > default)

(* Granularity (paper §1) on C3540, K = 1..64: the minimum
   discriminability rises strictly with K, and exactly K <= 2 is
   infeasible. *)
let test_granularity () =
  let rows = E.tradeoff () in
  Alcotest.(check bool) "min d rises strictly with K" true
    (strictly
       (fun (_, a, _) (_, b, _) ->
         a.Cost.min_discriminability < b.Cost.min_discriminability)
       rows);
  Alcotest.(check (list int)) "infeasible K" [ 1; 2 ]
    (List.filter_map
       (fun (k, b, _) -> if b.Cost.feasible then None else Some k)
       rows)

(* Fig. 2: column-shaped groups need more sensor area than row-shaped
   ones, and the ratio grows with the array (3x3, 6x6, 9x12). *)
let test_fig2_ratio () =
  let ratios =
    List.map (fun (r : E.fig2_row) -> r.E.col_area /. r.E.row_area) (E.fig2 ())
  in
  Alcotest.(check int) "three arrays" 3 (List.length ratios);
  Alcotest.(check bool) "ratio > 1" true (List.for_all (fun x -> x > 1.0) ratios);
  Alcotest.(check bool)
    (Printf.sprintf "ratio grows strictly: %s"
       (String.concat ", " (List.map (Printf.sprintf "%.2f") ratios)))
    true (strictly ( < ) ratios)

(* Modules buy resolution: on each stand-in of the diagnosis grid the
   expected ambiguity falls strictly over K = 2, 4, 8, 16.  Reads the
   grid the test_diagnose gate already computed. *)
let test_modules_buy_resolution () =
  let rows = E.diagnose_grid () in
  List.iter
    (fun name ->
      let cells =
        List.filter (fun (r : E.diagnose_row) -> r.E.circuit = name) rows
      in
      Alcotest.(check (list int))
        (name ^ ": module counts") [ 2; 4; 8; 16 ]
        (List.map (fun (r : E.diagnose_row) -> r.E.modules) cells);
      Alcotest.(check bool)
        (name ^ ": expected ambiguity falls strictly")
        true
        (strictly
           (fun (a : E.diagnose_row) (b : E.diagnose_row) ->
             a.E.summary.Diagnose.expected_ambiguity
             > b.E.summary.Diagnose.expected_ambiguity)
           cells))
    E.grid_circuits

(* Sizing: sensors sized for the probabilistic expectation overshoot
   the rail budget on every module under observed activity; sensors
   sized from the pessimistic bound overshoot on none. *)
let test_sizing () =
  match E.sizing () with
  | pessimistic :: expectation :: _ ->
    Alcotest.(check int) "pessimistic overshoots" 0 pessimistic.E.overshoots;
    Alcotest.(check int) "expectation overshoots every module"
      expectation.E.modules expectation.E.overshoots;
    Alcotest.(check bool) "modules" true (expectation.E.modules > 0)
  | _ -> Alcotest.fail "sizing: expected the pessimistic and expectation rows"

(* Figs. 3-5 on C17: the evolution ends at two 3-gate modules, with a
   cost below the paper's grouping {(10,16,22),(11,19,23)}. *)
let test_c17 () =
  let r = E.c17 () in
  Alcotest.(check (list int)) "two 3-gate modules" [ 3; 3 ]
    (List.map (fun (_, gates) -> List.length gates) r.E.modules);
  Alcotest.(check bool)
    (Printf.sprintf "final %.4f < paper grouping %.4f" r.E.cost r.E.paper_cost)
    true (r.E.cost < r.E.paper_cost)

(* Seed stability on C1908: evolution needs less sensor area than the
   standard partitioner under every one of the five optimizer seeds. *)
let test_stability () =
  let overheads = List.map snd (E.stability ()) in
  Alcotest.(check int) "five seeds" 5 (List.length overheads);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "standard over evolution %.1f%% > 0" o)
        true (o > 0.0))
    overheads

(* Co-optimization on C1908: the penalized cost falls strictly from
   each row to the next, drive selection and re-partition alike. *)
let test_cooptimize () =
  let rows = E.cooptimize () in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  let costs = List.map (fun (_, b, _) -> b.Cost.penalized) rows in
  Alcotest.(check bool)
    (Printf.sprintf "costs %s fall strictly"
       (String.concat " > " (List.map (Printf.sprintf "%.2f") costs)))
    true
    (strictly ( > ) costs)

(* Sensing-device variants on the evolved C1908 partition: the bypassed
   MOS sensor costs over 100x the pn-junction sensor's area, and the
   unbypassed pn junction costs 10-20x the bypassed sensor's delay
   overhead (145x and 14.7x as measured). *)
let test_variants () =
  let rows = E.variants () in
  let bypass = List.assoc Iddq_bic.Variants.Bypass_mos rows
  and pn = List.assoc Iddq_bic.Variants.Pn_junction rows in
  let area = bypass.Cost.sensor_area /. pn.Cost.sensor_area
  and delay = pn.Cost.c2_delay /. bypass.Cost.c2_delay in
  Alcotest.(check bool)
    (Printf.sprintf "bypass/pn sensor area %.1fx > 100x" area)
    true (area > 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "pn/bypass delay overhead %.1fx in [10, 20]x" delay)
    true
    (delay >= 10.0 && delay <= 20.0)

(* IDDQ vs logic on C432 and C1908, 150 wired-AND bridges under 64
   random vectors each: a sizeable share of the bridges is caught only
   by the current test (44.0 % and 32.7 % as measured), and no more
   bridges are logic-detected than IDDQ-activated. *)
let test_logic_vs_iddq () =
  List.iter
    (fun (r : E.logic_vs_iddq_row) ->
      let share = float_of_int r.E.iddq_only /. float_of_int r.E.bridges in
      Alcotest.(check bool)
        (Printf.sprintf "%s: IDDQ-only share %.1f%% >= 25%%" r.E.stand_in
           (100.0 *. share))
        true (share >= 0.25);
      Alcotest.(check bool)
        (Printf.sprintf "%s: IDDQ-activated %d >= logic-detected %d"
           r.E.stand_in r.E.iddq_detected r.E.logic_detected)
        true
        (r.E.iddq_detected >= r.E.logic_detected))
    (E.logic_vs_iddq ())

let tests =
  [
    Alcotest.test_case "ablation A: standard costliest" `Slow test_ablation_opt;
    Alcotest.test_case "ablation B: delay-heavy trades area for delay" `Slow
      test_ablation_weights;
    Alcotest.test_case "ablation C: lambda=0 costlier than default" `Slow
      test_ablation_es;
    Alcotest.test_case "granularity: min d rises with K" `Slow test_granularity;
    Alcotest.test_case "fig2: column/row area ratio grows" `Slow test_fig2_ratio;
    Alcotest.test_case "modules buy resolution" `Slow
      test_modules_buy_resolution;
    Alcotest.test_case "sizing: expectation overshoots" `Slow test_sizing;
    Alcotest.test_case "c17: two 3-gate modules" `Slow test_c17;
    Alcotest.test_case "stability: evolution wins on every seed" `Slow test_stability;
    Alcotest.test_case "cooptimize: cost falls at every step" `Slow test_cooptimize;
    Alcotest.test_case "variants: area and delay ratios" `Slow test_variants;
    Alcotest.test_case "logic vs iddq: IDDQ-only share" `Slow test_logic_vs_iddq;
  ]
