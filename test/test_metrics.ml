module Metrics = Iddq_util.Metrics
module Json = Iddq_util.Json

let test_record_and_snapshot () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:100 ~seconds:0.5;
  Metrics.record_full m ~gates:100 ~seconds:0.25;
  Metrics.record_delta m ~gates:10 ~seconds:0.01;
  Metrics.add m Metrics.eval_cache_hits 1;
  Metrics.add m Metrics.moves 1;
  Metrics.add m Metrics.moves 1;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "full" 2 (Metrics.get s Metrics.full_evals);
  Alcotest.(check int) "delta" 1 (Metrics.get s Metrics.delta_evals);
  Alcotest.(check int) "hits" 1 (Metrics.get s Metrics.eval_cache_hits);
  Alcotest.(check int) "moves" 2 (Metrics.get s Metrics.moves);
  Alcotest.(check int) "gates full" 200 (Metrics.get s Metrics.gates_full);
  Alcotest.(check int) "gates delta" 10 (Metrics.get s Metrics.gates_delta);
  Alcotest.(check (float 1e-12)) "seconds full" 0.75
    (Metrics.seconds s Metrics.seconds_full);
  Alcotest.(check int) "evaluations" 4 (Metrics.evaluations s)

let test_equivalent_evals () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:100 ~seconds:0.0;
  Metrics.record_delta m ~gates:10 ~seconds:0.0;
  Metrics.record_delta m ~gates:40 ~seconds:0.0;
  let s = Metrics.snapshot m in
  (* 1 full + 50 delta-gates at 100 gates per full = 1.5 *)
  Alcotest.(check (float 1e-12)) "normalized by mean full size" 1.5
    (Metrics.equivalent_evals s)

let test_equivalent_evals_no_full () =
  (* with no full evaluation there is no normalizer: every delta
     counts as a full one (pessimistic) *)
  let m = Metrics.create () in
  Metrics.record_delta m ~gates:7 ~seconds:0.0;
  Metrics.record_delta m ~gates:3 ~seconds:0.0;
  let s = Metrics.snapshot m in
  Alcotest.(check (float 1e-12)) "pessimistic fallback" 2.0
    (Metrics.equivalent_evals s)

let test_domain_safe_recording () =
  (* concurrent recording from several domains loses nothing *)
  let m = Metrics.create () in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.record_delta m ~gates:3 ~seconds:1e-6;
      Metrics.add m Metrics.moves 1
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "all deltas counted" (4 * per_domain)
    (Metrics.get s Metrics.delta_evals);
  Alcotest.(check int) "all moves counted" (4 * per_domain)
    (Metrics.get s Metrics.moves);
  Alcotest.(check int) "all gates counted" (12 * per_domain)
    (Metrics.get s Metrics.gates_delta);
  Alcotest.(check (float 1e-9)) "all seconds accumulated"
    (4.0e-6 *. float_of_int per_domain)
    (Metrics.seconds s Metrics.seconds_delta)

(* One recording step: a registry counter bumped directly, or one of
   the helpers that tie several counters together.  Timings are whole
   microseconds so every recording is exact in nanoseconds. *)
type op =
  | Bump of int * int  (* registry index, amount (or mark) *)
  | Full of int * int  (* gates, microseconds *)
  | Delta of int * int
  | Request of bool * int
  | Fault_sim of int * int * int * int

let registry = Array.of_list Metrics.counters

let apply m = function
  | Bump (i, n) -> (
    let c = registry.(i) in
    match Metrics.kind c with
    | Metrics.Peak -> Metrics.peak m c n
    | Metrics.Count | Metrics.Seconds -> Metrics.add m c n)
  | Full (gates, us) ->
    Metrics.record_full m ~gates ~seconds:(float_of_int us *. 1e-6)
  | Delta (gates, us) ->
    Metrics.record_delta m ~gates ~seconds:(float_of_int us *. 1e-6)
  | Request (ok, us) ->
    Metrics.record_request m ~ok ~seconds:(float_of_int us *. 1e-6)
  | Fault_sim (blocks, fault_blocks, dropped, steals) ->
    Metrics.record_fault_sim ~steals m ~blocks ~fault_blocks ~dropped

let print_op = function
  | Bump (i, n) -> Printf.sprintf "Bump(%s,%d)" (Metrics.name registry.(i)) n
  | Full (g, us) -> Printf.sprintf "Full(%d,%dus)" g us
  | Delta (g, us) -> Printf.sprintf "Delta(%d,%dus)" g us
  | Request (ok, us) -> Printf.sprintf "Request(%b,%dus)" ok us
  | Fault_sim (a, b, c, d) -> Printf.sprintf "Fault_sim(%d,%d,%d,%d)" a b c d

let ops_arb =
  let open QCheck.Gen in
  let small = int_range 0 100_000 and us = int_range 0 10_000_000 in
  let op =
    oneof
      [
        map2 (fun i n -> Bump (i, n)) (int_bound (Array.length registry - 1)) small;
        map2 (fun g t -> Full (g, t)) small us;
        map2 (fun g t -> Delta (g, t)) small us;
        map2 (fun ok t -> Request (ok, t)) bool us;
        map4 (fun a b c d -> Fault_sim (a, b, c, d)) small small small small;
      ]
  in
  QCheck.make ~print:(QCheck.Print.list print_op) (list_size (int_bound 60) op)

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json s) = Ok s" ~count:300 ops_arb
    (fun ops ->
      let m = Metrics.create () in
      List.iter (apply m) ops;
      let s = Metrics.snapshot m in
      let through_text =
        Result.bind
          (Json.parse (Json.to_string (Metrics.to_json s)))
          Metrics.of_json
      in
      Metrics.of_json (Metrics.to_json s) = Ok s && through_text = Ok s)

let test_strip_timing () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:10 ~seconds:0.5;
  Metrics.record_request m ~ok:false ~seconds:0.25;
  Metrics.peak m Metrics.queue_peak 3;
  let s = Metrics.strip_timing (Metrics.snapshot m) in
  List.iter
    (fun c ->
      if Metrics.kind c = Metrics.Seconds then
        Alcotest.(check int) (Metrics.name c) 0 (Metrics.get s c))
    Metrics.counters;
  Alcotest.(check int) "counts kept" 1 (Metrics.get s Metrics.full_evals);
  Alcotest.(check int) "failures kept" 1 (Metrics.get s Metrics.requests_failed);
  Alcotest.(check int) "peaks kept" 3 (Metrics.get s Metrics.queue_peak)

let tests =
  [
    Alcotest.test_case "record and snapshot" `Quick test_record_and_snapshot;
    Alcotest.test_case "equivalent evals" `Quick test_equivalent_evals;
    Alcotest.test_case "equivalent evals without full" `Quick
      test_equivalent_evals_no_full;
    Alcotest.test_case "domain-safe recording" `Quick test_domain_safe_recording;
    QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
    Alcotest.test_case "strip timing" `Quick test_strip_timing;
  ]
