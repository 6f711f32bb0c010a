module Stuck_at = Iddq_defects.Stuck_at
module Bridge_logic = Iddq_defects.Bridge_logic
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate
module Pattern_gen = Iddq_patterns.Pattern_gen
module Rng = Iddq_util.Rng

let c17 = Iscas.c17 ()
let node name = Option.get (Circuit.node_id_of_name c17 name)

let test_fault_list_sizes () =
  (* 11 nodes -> 22 stem faults; 6 NAND gates x 2 pins x 2 values = 24
     pin faults *)
  let full = Stuck_at.full_fault_list c17 in
  Alcotest.(check int) "full" 46 (List.length full);
  (* collapsing drops the 12 controlling-value (sa0) NAND pin faults *)
  let collapsed = Stuck_at.collapsed_fault_list c17 in
  Alcotest.(check int) "collapsed" 34 (List.length collapsed);
  (* collapsed is a subset of full *)
  List.iter
    (fun f -> Alcotest.(check bool) "subset" true (List.mem f full))
    collapsed

let test_stem_fault_changes_output () =
  (* output 22 stuck at 1: any vector driving 22 to 0 detects it.
     22 = NAND(10,16) is 0 iff 10 = 16 = 1. *)
  let fault = Stuck_at.Stem (node "22", true) in
  (* inputs (1,2,3,6,7): choose 1=0 -> 10=1; 2=0 -> 16=1 *)
  let v = [| false; false; false; false; false |] in
  Alcotest.(check bool) "detected" true (Stuck_at.detects c17 fault v)

let test_input_stem_fault () =
  let fault = Stuck_at.Stem (node "1", true) in
  (* with input 1 = 0 and 3 = 1, g10 flips if 1 is stuck at 1;
     need propagation: 10 feeds 22 with 16 = 1 *)
  let v = [| false; false; true; false; false |] in
  (* 3=1,6=0 -> 11=1; 2=0 -> 16=1: 10 good = NAND(0,1)=1, bad = NAND(1,1)=0;
     22 good = NAND(1,1)=0, bad = NAND(0,1)=1 -> detected *)
  Alcotest.(check bool) "detected at 22" true (Stuck_at.detects c17 fault v)

let test_pin_fault_local () =
  (* a pin fault only affects its own gate, not other readers of the
     stem: stuck pin 0 of gate 16 (reading net 2) *)
  let g16 = node "16" in
  let fault = Stuck_at.Pin { gate = g16; pin = 0; value = true } in
  let v = [| true; false; true; true; true |] in
  let bad = Stuck_at.faulty_eval c17 fault v in
  let good = Iddq_patterns.Logic_sim.eval c17 v in
  (* net 2 itself is unchanged *)
  Alcotest.(check bool) "stem unchanged" true (bad.(node "2") = good.(node "2"));
  (* gate 16: good = NAND(0, x) = 1; bad = NAND(1, 11) *)
  Alcotest.(check bool) "gate output changed" true
    (bad.(g16) <> good.(g16) || good.(node "11") = false)

let test_equivalence_classes_detect_identically () =
  (* a controlling-value pin fault and its output stem fault are
     detected by exactly the same vectors (single-reader pin) *)
  let g10 = node "10" in
  let pin_fault = Stuck_at.Pin { gate = g10; pin = 0; value = false } in
  let stem_fault = Stuck_at.Stem (g10, true) in
  (* NAND input sa0 ==> output sa1 *)
  Array.iter
    (fun v ->
      Alcotest.(check bool) "same detection" (Stuck_at.detects c17 stem_fault v)
        (Stuck_at.detects c17 pin_fault v))
    (Pattern_gen.exhaustive c17)

let test_collapsed_coverage_equals_full () =
  let vectors = Pattern_gen.exhaustive c17 in
  let full =
    Stuck_at.fault_simulate c17 ~vectors ~faults:(Stuck_at.full_fault_list c17)
  in
  let collapsed =
    Stuck_at.fault_simulate c17 ~vectors
      ~faults:(Stuck_at.collapsed_fault_list c17)
  in
  (* C17 is fully testable: exhaustive vectors detect everything *)
  Alcotest.(check (float 1e-9)) "full list 100%" 1.0 full.Stuck_at.coverage;
  Alcotest.(check (float 1e-9)) "collapsed 100%" 1.0 collapsed.Stuck_at.coverage

let test_fault_dropping_first_vector () =
  let vectors = Pattern_gen.exhaustive c17 in
  let faults = Stuck_at.collapsed_fault_list c17 in
  let r = Stuck_at.fault_simulate c17 ~vectors ~faults in
  Alcotest.(check int) "all faults accounted" (List.length faults) r.Stuck_at.total;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "valid first vector" true
        (v >= 0 && v < Array.length vectors))
    r.Stuck_at.first_vector

let test_undetectable_fault () =
  (* a redundant circuit: y = OR(a, NOT a) is constant 1, so y/sa1 is
     undetectable *)
  let b = Builder.create () in
  Builder.add_input b "a";
  Builder.add_gate b "na" Gate.Not [ "a" ];
  Builder.add_gate b "y" Gate.Or [ "a"; "na" ];
  Builder.add_output b "y";
  let c = Builder.freeze_exn b in
  let y = Option.get (Circuit.node_id_of_name c "y") in
  let vectors = Pattern_gen.exhaustive c in
  let r =
    Stuck_at.fault_simulate c ~vectors ~faults:[ Stuck_at.Stem (y, true) ]
  in
  Alcotest.(check int) "undetectable" 0 r.Stuck_at.detected;
  let m =
    Stuck_at.detection_matrix c ~vectors ~faults:[ Stuck_at.Stem (y, true) ]
  in
  Alcotest.(check bool) "empty matrix row" true
    (Iddq_util.Bitvec.is_empty m.Iddq_defects.Fault_sim.rows.(0))

(* ---------------- bridge logic ---------------- *)

let test_feedback_detection () =
  (* 16 feeds 22; bridging 16 with 22 is not a loop (only one
     direction), but bridging 11 with 16 where 16 reads 11...
     still one direction.  A true loop needs mutual reachability,
     impossible in a DAG - so is_feedback is always false here. *)
  Alcotest.(check bool) "DAG has no mutual reachability" false
    (Bridge_logic.is_feedback c17 (node "11") (node "16"));
  Alcotest.(check bool) "self" false
    (Bridge_logic.is_feedback c17 (node "11") (node "11"))

let test_bridge_logic_vs_iddq () =
  (* bridge between nets 10 and 11 (parallel NANDs).  IDDQ detects on
     any vector driving them apart; logic detection additionally needs
     propagation. *)
  let a = node "10" and b = node "11" in
  let vectors = Pattern_gen.exhaustive c17 in
  let iddq = Array.to_list vectors |> List.filter (Bridge_logic.iddq_detects c17 ~a ~b) in
  let logic = Array.to_list vectors |> List.filter (Bridge_logic.logic_detects c17 ~a ~b) in
  Alcotest.(check bool) "IDDQ catches some vectors" true (iddq <> []);
  (* logic detection implies IDDQ activation: a wired-AND only changes
     a value when the two nets differ *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "logic => iddq" true
        (Bridge_logic.iddq_detects c17 ~a ~b v))
    logic;
  Alcotest.(check bool) "IDDQ detects at least as many vectors" true
    (List.length iddq >= List.length logic)

let test_bridge_faulty_eval_forced_values () =
  let a = node "10" and b = node "11" in
  let v = [| true; true; true; false; true |] in
  (* 10 = NAND(1,3) = 0; 11 = NAND(3,6) = 1 -> wired-AND forces both to 0 *)
  match Bridge_logic.faulty_eval c17 ~a ~b v with
  | None -> Alcotest.fail "not a feedback bridge"
  | Some values ->
    Alcotest.(check bool) "a forced" false values.(a);
    Alcotest.(check bool) "b forced" false values.(b)

let test_iscas_new_standins () =
  let check name c ~inputs ~gates ~depth =
    Alcotest.(check string) (name ^ " name") name (Circuit.name c);
    Alcotest.(check int) (name ^ " inputs") inputs (Circuit.num_inputs c);
    Alcotest.(check int) (name ^ " gates") gates (Circuit.num_gates c);
    Alcotest.(check int) (name ^ " depth") depth (Circuit.depth c)
  in
  check "C499" (Iscas.c499_like ()) ~inputs:41 ~gates:202 ~depth:11;
  check "C880" (Iscas.c880_like ()) ~inputs:60 ~gates:383 ~depth:24;
  check "C1355" (Iscas.c1355_like ()) ~inputs:41 ~gates:546 ~depth:24;
  (* the mixes differ: C499 is XOR-heavy, C1355 NAND-heavy *)
  let count kind c =
    let n = ref 0 in
    for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
      if Gate.equal (Circuit.gate_kind c id) kind then incr n
    done;
    !n
  in
  Alcotest.(check bool) "C499 XOR-rich" true
    (count Gate.Xor (Iscas.c499_like ()) > 40);
  Alcotest.(check bool) "C1355 NAND-rich" true
    (count Gate.Nand (Iscas.c1355_like ()) > 300)

let qcheck_logic_implies_iddq =
  QCheck.Test.make
    ~name:"wired-AND logic detection implies IDDQ activation" ~count:40
    QCheck.(triple (int_range 10 60) (int_range 1 100000) (int_range 0 1000))
    (fun (gates, seed, vseed) ->
      let rng = Rng.create seed in
      let c =
        Iddq_netlist.Generator.layered_dag ~rng ~name:"q" ~num_inputs:6
          ~num_outputs:3 ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let a = Circuit.node_of_gate c (Rng.int rng (Circuit.num_gates c)) in
      let b = Circuit.node_of_gate c (Rng.int rng (Circuit.num_gates c)) in
      if a = b then true
      else begin
        let vr = Rng.create vseed in
        let v = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool vr) in
        (not (Bridge_logic.logic_detects c ~a ~b v))
        || Bridge_logic.iddq_detects c ~a ~b v
      end)

(* The cone-restricted faulty machine works in per-chunk Bigarray
   scratch: the whole matrix costs a few words per fault (its row and
   list cells), where a boxed whole-circuit evaluation costs about a
   word per node per (fault, block). *)
let test_detection_matrix_allocation () =
  let c = Iscas.c880_like () in
  let vectors = Pattern_gen.random ~rng:(Rng.create 5) c ~count:256 in
  let faults = Stuck_at.collapsed_fault_list c in
  let nf = List.length faults in
  ignore (Stuck_at.detection_matrix c ~vectors ~faults);
  let before = Gc.minor_words () in
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  let per_fault = (Gc.minor_words () -. before) /. float_of_int nf in
  Alcotest.(check int) "one row per fault" nf
    (Array.length m.Iddq_defects.Fault_sim.rows);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per fault < 64" per_fault)
    true (per_fault < 64.0)

(* The packed kernels index CSR arrays unchecked, so a fault naming
   a node or pin the circuit does not have is rejected up front. *)
let test_malformed_faults_rejected () =
  List.iter
    (fun (what, fault) ->
      List.iter
        (fun vectors ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d vectors" what (Array.length vectors))
            true
            (try
               ignore (Stuck_at.fault_simulate c17 ~vectors ~faults:[ fault ]);
               false
             with Invalid_argument _ -> true))
        [ Pattern_gen.exhaustive c17; [||] ])
    [
      ("stem out of range", Stuck_at.Stem (Circuit.num_nodes c17, true));
      ("pin on an input", Stuck_at.Pin { gate = node "3"; pin = 0; value = true });
      ("missing pin", Stuck_at.Pin { gate = node "22"; pin = 2; value = true });
    ]

(* [fault_simulate]'s counters on a 130-vector set (three blocks, the
   last one partial) follow from its first vectors: each fault is
   checked against the blocks up to its first detecting one, or all
   of them when none detects it, and never against a later block. *)
let test_fault_simulate_counters () =
  let c = Iscas.c432_like () in
  let vectors = Pattern_gen.random ~rng:(Rng.create 17) c ~count:130 in
  let faults = Stuck_at.collapsed_fault_list c in
  let metrics = Iddq_util.Metrics.create () in
  let r = Stuck_at.fault_simulate ~metrics c ~vectors ~faults in
  let s = Iddq_util.Metrics.snapshot metrics in
  let get = Iddq_util.Metrics.get s in
  let blocks = 3 in
  let expected_fault_blocks =
    Array.fold_left
      (fun acc v -> acc + if v >= 0 then (v / 64) + 1 else blocks)
      0 r.Stuck_at.first_vector
  in
  (* the counts are not trivial: faults drop in the first and second
     blocks, and some stay live through all three *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "a fault drops in block %d" b)
        true
        (Array.exists (fun v -> v >= 0 && v / 64 = b) r.Stuck_at.first_vector))
    [ 0; 1 ];
  Alcotest.(check bool) "some fault undetected" true
    (r.Stuck_at.detected < r.Stuck_at.total);
  Alcotest.(check int) "sim_blocks" blocks (get Iddq_util.Metrics.sim_blocks);
  Alcotest.(check int) "sim_fault_blocks" expected_fault_blocks
    (get Iddq_util.Metrics.sim_fault_blocks);
  Alcotest.(check int) "sim_faults_dropped" r.Stuck_at.detected
    (get Iddq_util.Metrics.sim_faults_dropped)

(* The one-block detector the ATPG loop checks each fault with,
   against scalar [detects] on sets of 1, 63 and 64 vectors: a fault
   is detected when some vector of the last load detects it. *)
let test_block_detector () =
  let c = Iscas.c432_like () in
  let faults = Stuck_at.collapsed_fault_list c in
  let pool = Pattern_gen.random ~rng:(Rng.create 9) c ~count:64 in
  let block = Stuck_at.Block.create c in
  List.iter
    (fun count ->
      let vectors = Array.sub pool (64 - count) count in
      Stuck_at.Block.load block vectors;
      List.iteri
        (fun f fault ->
          Alcotest.(check bool)
            (Printf.sprintf "%d vectors, fault %d" count f)
            (Array.exists (Stuck_at.detects c fault) vectors)
            (Stuck_at.Block.detects block fault))
        faults)
    [ 64; 1; 63 ];
  (* a second load replaces the first: after loading one vector, a
     fault only the earlier 63 detect is no longer detected *)
  Stuck_at.Block.load block (Array.sub pool 1 63);
  Stuck_at.Block.load block [| pool.(0) |];
  let dropped =
    List.filter
      (fun fault ->
        (not (Stuck_at.detects c fault pool.(0)))
        && Array.exists (Stuck_at.detects c fault) (Array.sub pool 1 63))
      faults
  in
  Alcotest.(check bool) "some fault only the first load detects" true
    (dropped <> []);
  List.iter
    (fun fault ->
      Alcotest.(check bool) "replaced load" false
        (Stuck_at.Block.detects block fault))
    dropped;
  let raises what f =
    Alcotest.(check bool) what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  raises "empty load" (fun () -> Stuck_at.Block.load block [||]);
  raises "65 vectors" (fun () ->
      Stuck_at.Block.load block (Array.append pool [| pool.(0) |]));
  raises "malformed fault" (fun () ->
      ignore
        (Stuck_at.Block.detects block
           (Stuck_at.Stem (Circuit.num_nodes c, true))))

(* The fanout-free-region engine against the scalar oracle on a
   circuit built to hit every root case: [g1] is read on both pins of
   [g2] (a root whose reader's pin faults are in the list), [g3] is an
   output that also fans out, input [a] is an output, [dead] is read
   by nobody and is not an output, and [g2 .. n5] is a NOT, BUFF, XOR,
   NAND, NOR chain inside one region that also takes in the
   single-reader input [f].  Every fault of the full list, on the
   exhaustive set twice over plus a 7-vector tail (three blocks, the
   last one partial): each matrix row, each first vector of
   [fault_simulate] and each per-block [Block.first_lane] is what
   [detects] says, vector by vector. *)
let test_regions_vs_detects () =
  let b = Builder.create () in
  List.iter (Builder.add_input b) [ "a"; "b"; "c"; "d"; "e"; "f" ];
  List.iter
    (fun (name, kind, fanins) -> Builder.add_gate b name kind fanins)
    [
      ("g1", Gate.And, [ "a"; "b" ]);
      ("g2", Gate.Nand, [ "g1"; "g1" ]);
      ("n1", Gate.Not, [ "g2" ]);
      ("n2", Gate.Buff, [ "n1" ]);
      ("n3", Gate.Xor, [ "n2"; "c" ]);
      ("n4", Gate.Nand, [ "n3"; "d" ]);
      ("n5", Gate.Nor, [ "n4"; "f" ]);
      ("g3", Gate.Or, [ "c"; "d" ]);
      ("y", Gate.And, [ "n5"; "g3" ]);
      ("z", Gate.Xnor, [ "g3"; "e" ]);
      ("dead", Gate.Nor, [ "b"; "c" ]);
    ];
  List.iter (Builder.add_output b) [ "y"; "z"; "g3"; "a" ];
  let c = Builder.freeze_exn b in
  let exhaustive = Pattern_gen.exhaustive c in
  let vectors =
    Array.concat [ exhaustive; exhaustive; Array.sub exhaustive 9 7 ]
  in
  let nv = Array.length vectors in
  let faults = Stuck_at.full_fault_list c in
  let oracle =
    List.map (fun f -> Array.map (Stuck_at.detects c f) vectors) faults
  in
  let first_true a lo hi =
    let rec go i = if i >= hi then -1 else if a.(i) then i - lo else go (i + 1) in
    go lo
  in
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  let r = Stuck_at.fault_simulate c ~vectors ~faults in
  let block = Stuck_at.Block.create c in
  List.iteri
    (fun i (fault, want) ->
      let name = Format.asprintf "%a" (Stuck_at.pp_fault c) fault in
      let row = m.Iddq_defects.Fault_sim.rows.(i) in
      Array.iteri
        (fun v d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: matrix vector %d" name v)
            d
            (Iddq_util.Bitvec.get row v))
        want;
      Alcotest.(check int)
        (name ^ ": first vector")
        (first_true want 0 nv) r.Stuck_at.first_vector.(i))
    (List.combine faults oracle);
  (* one load per block, every fault checked after each: a load must
     replace what the previous one left behind *)
  for blk = 0 to ((nv + 63) / 64) - 1 do
    let lo = blk * 64 in
    let hi = Stdlib.min nv (lo + 64) in
    Stuck_at.Block.load block (Array.sub vectors lo (hi - lo));
    List.iter2
      (fun fault want ->
        Alcotest.(check int)
          (Format.asprintf "block %d, %a: first lane" blk (Stuck_at.pp_fault c)
             fault)
          (first_true want lo hi)
          (Stuck_at.Block.first_lane block fault))
      faults oracle
  done;
  (* the regions are not trivially empty: some fault is detected, and
     some is not (the dead gate's) *)
  Alcotest.(check bool) "some fault detected" true (r.Stuck_at.detected > 0);
  Alcotest.(check bool) "some fault undetected" true
    (r.Stuck_at.detected < r.Stuck_at.total)

(* After a load, a query allocates nothing: the root observability
   memo and the walk scratch are allocated once, by [Block.create]. *)
let test_block_query_allocation () =
  let c = Iscas.c432_like () in
  let faults = Array.of_list (Stuck_at.collapsed_fault_list c) in
  let block = Stuck_at.Block.create c in
  Stuck_at.Block.load block
    (Pattern_gen.random ~rng:(Rng.create 21) c ~count:64);
  let detected = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length faults - 1 do
    if Stuck_at.Block.first_lane block faults.(i) >= 0 then incr detected
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool) "some fault detected" true (!detected > 0);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words across %d first_lane calls"
       (Array.length faults))
    0.0 delta

let tests =
  [
    Alcotest.test_case "fault list sizes" `Quick test_fault_list_sizes;
    Alcotest.test_case "stem fault" `Quick test_stem_fault_changes_output;
    Alcotest.test_case "input stem fault" `Quick test_input_stem_fault;
    Alcotest.test_case "pin fault local" `Quick test_pin_fault_local;
    Alcotest.test_case "equivalence classes" `Quick
      test_equivalence_classes_detect_identically;
    Alcotest.test_case "collapsed coverage" `Quick
      test_collapsed_coverage_equals_full;
    Alcotest.test_case "fault dropping" `Quick test_fault_dropping_first_vector;
    Alcotest.test_case "fault_simulate counters = first vectors" `Quick
      test_fault_simulate_counters;
    Alcotest.test_case "undetectable fault" `Quick test_undetectable_fault;
    Alcotest.test_case "feedback detection" `Quick test_feedback_detection;
    Alcotest.test_case "bridge logic vs iddq" `Quick test_bridge_logic_vs_iddq;
    Alcotest.test_case "bridge forced values" `Quick
      test_bridge_faulty_eval_forced_values;
    Alcotest.test_case "new iscas stand-ins" `Quick test_iscas_new_standins;
    Alcotest.test_case "matrix allocation per fault" `Quick
      test_detection_matrix_allocation;
    Alcotest.test_case "malformed faults rejected" `Quick
      test_malformed_faults_rejected;
    QCheck_alcotest.to_alcotest qcheck_logic_implies_iddq;
    Alcotest.test_case "one-block detector = detects" `Quick
      test_block_detector;
    Alcotest.test_case "fanout-free regions = detects" `Quick
      test_regions_vs_detects;
    Alcotest.test_case "block query allocation-free" `Quick
      test_block_query_allocation;
  ]
