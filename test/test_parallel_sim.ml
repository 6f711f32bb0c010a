module P = Iddq_patterns.Parallel_sim
module Logic_sim = Iddq_patterns.Logic_sim
module Pattern_gen = Iddq_patterns.Pattern_gen
module Stuck_at = Iddq_defects.Stuck_at
module Iscas = Iddq_netlist.Iscas
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Generator = Iddq_netlist.Generator
module Rng = Iddq_util.Rng

let bit word k = Int64.logand (Int64.shift_right_logical word k) 1L = 1L

(* The striped kernel over the whole set agrees, on every node of every
   real vector, with [Logic_sim.eval], the one scalar logic reference. *)
let striped_equals_scalar c vectors =
  let p = P.pack_all vectors in
  let nb = P.num_blocks p in
  let dst : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (Circuit.num_nodes c * nb)
  in
  P.eval_all_into c p ~rows:(P.all_rows c) ~dst;
  let ok = ref true in
  Array.iteri
    (fun v inputs ->
      let scalar = Logic_sim.eval c inputs in
      for id = 0 to Circuit.num_nodes c - 1 do
        let word = Bigarray.Array1.get dst ((id * nb) + (v / 64)) in
        if scalar.(id) <> bit word (v mod 64) then ok := false
      done)
    vectors;
  !ok

let test_pack_unpack () =
  let vectors = [| [| true; false |]; [| false; true |]; [| true; true |] |] in
  let packed = P.pack vectors ~start:0 in
  Alcotest.(check int) "one word per input" 2 (Array.length packed);
  Alcotest.(check bool) "v0 i0" true (bit packed.(0) 0);
  Alcotest.(check bool) "v1 i0" false (bit packed.(0) 1);
  Alcotest.(check bool) "v1 i1" true (bit packed.(1) 1);
  Alcotest.(check bool) "v2 i0" true (bit packed.(0) 2);
  Alcotest.(check int64) "mask covers 3" 7L (P.active_mask vectors ~start:0);
  Alcotest.(check int64) "tail mask" 1L (P.active_mask vectors ~start:2)

let test_eval_matches_scalar_c17 () =
  let c = Iscas.c17 () in
  Alcotest.(check bool) "every node under all 32 vectors" true
    (striped_equals_scalar c (Pattern_gen.exhaustive c))

(* The stuck-at faulty machine lives in {!Stuck_at}: its packed
   detection matrix must agree with the scalar [detects] oracle on
   every vector. *)
let check_matrix_matches_detects c vectors faults =
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  List.iteri
    (fun f fault ->
      let row = m.Iddq_defects.Fault_sim.rows.(f) in
      Array.iteri
        (fun k v ->
          Alcotest.(check bool)
            (Format.asprintf "%a vector %d" (Stuck_at.pp_fault c) fault k)
            (Stuck_at.detects c fault v)
            (Iddq_util.Bitvec.get row k))
        vectors)
    faults

let test_stuck_node_matches_scalar () =
  let c = Iscas.c17 () in
  let node = Option.get (Circuit.node_id_of_name c "16") in
  let stems =
    List.filter
      (function Stuck_at.Stem _ -> true | Stuck_at.Pin _ -> false)
      (Stuck_at.full_fault_list c)
  in
  check_matrix_matches_detects c (Pattern_gen.exhaustive c)
    (Stuck_at.Stem (node, true) :: stems)

let test_stuck_pin_matches_scalar () =
  let c = Iscas.c17 () in
  let gate = Option.get (Circuit.node_id_of_name c "22") in
  let pins =
    List.filter
      (function Stuck_at.Pin _ -> true | Stuck_at.Stem _ -> false)
      (Stuck_at.full_fault_list c)
  in
  check_matrix_matches_detects c (Pattern_gen.exhaustive c)
    (Stuck_at.Pin { gate; pin = 1; value = false } :: pins)

let test_stuck_output_word () =
  (* output 22 stuck-at-1 differs exactly where the good output is 0,
     and never on the 32 padding bits of the one partial block *)
  let c = Iscas.c17 () in
  let vectors = Pattern_gen.exhaustive c in
  let node22 = Option.get (Circuit.node_id_of_name c "22") in
  let m =
    Stuck_at.detection_matrix c ~vectors ~faults:[ Stuck_at.Stem (node22, true) ]
  in
  let row = m.Iddq_defects.Fault_sim.rows.(0) in
  Array.iteri
    (fun k v ->
      Alcotest.(check bool)
        (Printf.sprintf "vector %d" k)
        (not (Logic_sim.eval c v).(node22))
        (Iddq_util.Bitvec.get row k))
    vectors;
  Alcotest.(check int64) "no padding bits" 0L
    (Int64.logand (Iddq_util.Bitvec.word row 0)
       (Int64.lognot (P.active_mask vectors ~start:0)))

let test_fault_simulate_matches_scalar_detects () =
  (* the packed fault simulator agrees with per-vector detection *)
  let c = Iscas.c432_like () in
  let rng = Rng.create 3 in
  let vectors = Pattern_gen.random ~rng c ~count:100 in
  let faults =
    (* a deterministic sample across the fault list *)
    List.filteri (fun i _ -> i mod 17 = 0) (Stuck_at.collapsed_fault_list c)
  in
  let r = Stuck_at.fault_simulate c ~vectors ~faults in
  List.iteri
    (fun f fault ->
      let expected =
        let rec scan v =
          if v >= Array.length vectors then -1
          else if Stuck_at.detects c fault vectors.(v) then v
          else scan (v + 1)
        in
        scan 0
      in
      Alcotest.(check int)
        (Printf.sprintf "fault %d first vector" f)
        expected
        r.Stuck_at.first_vector.(f))
    faults

let test_zero_fanin_rejected () =
  (* an And/Nand fold over zero fanins would silently yield
     all-ones/all-zeros; every evaluator must raise instead *)
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let module Gate = Iddq_netlist.Gate in
  List.iter
    (fun kind ->
      let name = Gate.to_string kind in
      Alcotest.(check bool)
        (Printf.sprintf "Gate.eval %s [||] rejected" name)
        true
        (raises (fun () -> Gate.eval kind [||]));
      (* a hand-built circuit whose one gate has no fanins *)
      let c =
        Circuit.unsafe_make ~name:"zero" ~num_inputs:1
          ~nodes:[| Circuit.Input; Circuit.Gate (kind, [||]) |]
          ~node_names:[| "a"; "g" |] ~outputs:[| 1 |]
      in
      let dst : P.ba = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 2 in
      Alcotest.(check bool)
        (Printf.sprintf "striped %s with no fanins rejected" name)
        true
        (raises (fun () ->
             P.eval_order_range_striped c ~rows:(P.all_rows c) ~order:[| 1 |] ~lo:0 ~hi:1
               ~block0:0 ~width:1 ~stride:1 ~dst));
      Alcotest.(check bool)
        (Printf.sprintf "Logic_sim %s with no fanins rejected" name)
        true
        (raises (fun () -> Logic_sim.eval c [| true |])))
    Gate.all_kinds

let qcheck_parallel_equals_scalar =
  QCheck.Test.make ~name:"64-way eval equals scalar eval" ~count:20
    QCheck.(triple (int_range 10 60) (int_range 1 100000) (int_range 0 1000))
    (fun (gates, seed, vseed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let vr = Rng.create vseed in
      let vectors = Pattern_gen.random ~rng:vr c ~count:64 in
      striped_equals_scalar c vectors)

(* The satellite property: a packed whole-set evaluation agrees
   bit-for-bit with the scalar simulator on random circuits and random
   vector counts — in particular across the final partial (<64) block —
   and the active mask covers exactly the real vectors. *)
let qcheck_partial_blocks_equal_scalar =
  QCheck.Test.make ~name:"pack_all eval equals scalar incl. partial block"
    ~count:25
    QCheck.(triple (int_range 10 80) (int_range 1 100000) (int_range 1 150))
    (fun (gates, seed, nv) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let vectors = Pattern_gen.random ~rng c ~count:nv in
      let packed = P.pack_all vectors in
      let ok = ref true in
      if P.n_vectors packed <> nv then ok := false;
      if P.num_blocks packed <> (nv + 63) / 64 then ok := false;
      for b = 0 to P.num_blocks packed - 1 do
        let count = Stdlib.min 64 (nv - (b * 64)) in
        let expected_mask =
          if count = 64 then Int64.minus_one
          else Int64.sub (Int64.shift_left 1L count) 1L
        in
        if P.block_mask packed b <> expected_mask then ok := false
      done;
      !ok && striped_equals_scalar c vectors)

let test_empty_vector_set_is_noop () =
  (* zero-pattern simulation: packing an empty set is a valid no-op,
     not a crash *)
  let empty : bool array array = [||] in
  Alcotest.(check int) "no words" 0 (Array.length (P.pack empty ~start:0));
  Alcotest.(check int64) "no active bits" 0L (P.active_mask empty ~start:0);
  (* fault simulation over zero vectors detects nothing and survives *)
  let c = Iscas.c17 () in
  let report =
    Stuck_at.fault_simulate c ~vectors:empty
      ~faults:(Stuck_at.collapsed_fault_list c)
  in
  Alcotest.(check int) "nothing detected" 0 report.Stuck_at.detected;
  (* start may equal the vector count: an empty tail block *)
  let vectors = [| [| true; false |]; [| false; true |] |] in
  let tail = P.pack vectors ~start:2 in
  Alcotest.(check int) "tail block keeps the width" 2 (Array.length tail);
  Array.iter (fun w -> Alcotest.(check int64) "tail words zero" 0L w) tail;
  Alcotest.(check int64) "tail mask zero" 0L (P.active_mask vectors ~start:2);
  (* out-of-range starts still rejected *)
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative start rejected" true
    (raises (fun () -> P.pack vectors ~start:(-1)));
  Alcotest.(check bool) "start past the end rejected" true
    (raises (fun () -> P.active_mask vectors ~start:3))

(* Row maps against a brute-force liveness oracle.  Random DAGs with
   repeated fanins (an [XOR(a, a)] reads [a] twice at one level) and
   random [keep] sets.  A node is live from its own level to the level
   of its last reader (its own level when nobody reads it; forever
   when kept): two nodes whose live ranges overlap must not share a
   row, and a kept node's row goes to no later node.  The kept nodes'
   words after a live-row evaluation equal the all-rows matrix. *)
let random_dag rng =
  let ni = 1 + Rng.int rng 6 and ng = 1 + Rng.int rng 60 in
  let n = ni + ng in
  let nodes =
    Array.init n (fun id ->
        if id < ni then Circuit.Input
        else begin
          let arity = 1 + Rng.int rng 3 in
          let fanins = Array.init arity (fun _ -> Rng.int rng id) in
          let kind =
            if arity = 1 then if Rng.bool rng then Gate.Not else Gate.Buff
            else Rng.choose rng Gate.[| And; Nand; Or; Nor; Xor; Xnor |]
          in
          Circuit.Gate (kind, fanins)
        end)
  in
  Circuit.unsafe_make ~name:"rows" ~nodes
    ~node_names:(Array.init n (Printf.sprintf "n%d"))
    ~num_inputs:ni ~outputs:[| n - 1 |]

let row_map_ok c ~keep (m : P.row_map) =
  let n = Circuit.num_nodes c in
  let kept id = Array.mem id keep in
  let birth id = Circuit.level c id in
  let death id =
    if kept id then max_int
    else
      Array.fold_left
        (fun d r -> Stdlib.max d (Circuit.level c r))
        (birth id) (Circuit.fanouts c id)
  in
  let ok = ref (m.P.n_rows <= n && Array.length m.P.rows = n) in
  for i = 0 to Circuit.num_inputs c - 1 do
    if m.P.rows.(i) <> i then ok := false
  done;
  for u = 0 to n - 1 do
    let ru = m.P.rows.(u) in
    if ru < 0 || ru >= m.P.n_rows then ok := false;
    for v = u + 1 to n - 1 do
      if m.P.rows.(v) = ru then begin
        (* overlapping live ranges *)
        if not (death u < birth v || death v < birth u) then ok := false;
        (* a kept row handed to a node born no earlier *)
        if (kept u && birth v >= birth u) || (kept v && birth u >= birth v)
        then ok := false
      end
    done
  done;
  !ok

let qcheck_row_map_oracle =
  QCheck.Test.make ~name:"row maps = brute-force liveness" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_dag rng in
      let n = Circuit.num_nodes c in
      let keep =
        Array.of_list
          (List.filter (fun _ -> Rng.int rng 8 = 0) (List.init n Fun.id))
      in
      let live = P.live_rows c ~keep in
      let all = P.all_rows c in
      let identity_ok =
        all.P.n_rows = n && all.P.rows = Array.init n Fun.id
      in
      let raises f =
        try ignore (f ()); false with Invalid_argument _ -> true
      in
      let bad_keep_ok =
        raises (fun () -> P.live_rows c ~keep:[| n |])
        && raises (fun () -> P.live_rows c ~keep:[| -1 |])
      in
      let vectors = Pattern_gen.random ~rng c ~count:70 in
      let p = P.pack_all vectors in
      let nb = P.num_blocks p in
      let eval (m : P.row_map) =
        let dst : P.ba =
          Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
            (m.P.n_rows * nb)
        in
        P.eval_all_into ~stripe:1 c p ~rows:m ~dst;
        dst
      in
      let full = eval all and recycled = eval live in
      let kept_ok =
        Array.for_all
          (fun id ->
            List.for_all
              (fun b ->
                Bigarray.Array1.get full ((id * nb) + b)
                = Bigarray.Array1.get recycled
                    ((live.P.rows.(id) * nb) + b))
              (List.init nb Fun.id))
          keep
      in
      identity_ok && bad_keep_ok && row_map_ok c ~keep live
      && row_map_ok c ~keep:[||] (P.live_rows c ~keep:[||])
      && kept_ok)

let tests =
  [
    Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
    Alcotest.test_case "empty vector set no-op" `Quick
      test_empty_vector_set_is_noop;
    Alcotest.test_case "eval matches scalar" `Quick test_eval_matches_scalar_c17;
    Alcotest.test_case "stuck node matches scalar" `Quick
      test_stuck_node_matches_scalar;
    Alcotest.test_case "stuck pin matches scalar" `Quick
      test_stuck_pin_matches_scalar;
    Alcotest.test_case "output diff" `Quick test_stuck_output_word;
    Alcotest.test_case "zero-fanin rejected" `Quick test_zero_fanin_rejected;
    Alcotest.test_case "fault sim matches scalar" `Quick
      test_fault_simulate_matches_scalar_detects;
    QCheck_alcotest.to_alcotest qcheck_parallel_equals_scalar;
    QCheck_alcotest.to_alcotest qcheck_partial_blocks_equal_scalar;
    QCheck_alcotest.to_alcotest qcheck_row_map_oracle;
  ]
