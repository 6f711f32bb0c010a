(* The flat-kernel invariants: Bigarray-backed Bitvec against a
   bool-array model (word boundaries included), the CSR circuit
   against its own boxed view, the zero-allocation guarantee of the
   striped evaluation loop, the flat IDDQ and stuck-at fault-sim
   engines against their scalar oracles, and the incremental c3
   bookkeeping against full recomputation. *)

module Bitvec = Iddq_util.Bitvec
module Rng = Iddq_util.Rng
module Domain_pool = Iddq_util.Domain_pool
module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Generator = Iddq_netlist.Generator
module Graph_algo = Iddq_netlist.Graph_algo
module P = Iddq_patterns.Parallel_sim
module Logic_sim = Iddq_patterns.Logic_sim
module Pattern_gen = Iddq_patterns.Pattern_gen
module Fault = Iddq_defects.Fault
module Fault_sim = Iddq_defects.Fault_sim
module Stuck_at = Iddq_defects.Stuck_at
module Charac = Iddq_analysis.Charac
module Library = Iddq_celllib.Library
module Partition = Iddq_core.Partition

(* ---------------- Bitvec word-index bounds (regressions) ------------- *)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_word_bounds_len0 () =
  let v = Bitvec.create 0 in
  Alcotest.(check int) "no words" 0 (Bitvec.num_words v);
  raises_invalid "word 0 of empty" (fun () -> Bitvec.word v 0);
  raises_invalid "word -1 of empty" (fun () -> Bitvec.word v (-1));
  raises_invalid "set_word 0 of empty" (fun () -> Bitvec.set_word v 0 1L);
  raises_invalid "set_word -1 of empty" (fun () -> Bitvec.set_word v (-1) 1L)

let test_word_bounds_multiple_of_64 () =
  (* len mod 64 = 0: the last word is full, there is no tail word *)
  let v = Bitvec.create 128 in
  Alcotest.(check int) "two words" 2 (Bitvec.num_words v);
  Bitvec.set_word v 1 Int64.minus_one;
  Alcotest.(check int64) "full word survives unmasked" Int64.minus_one
    (Bitvec.word v 1);
  Alcotest.(check int) "count" 64 (Bitvec.count v);
  raises_invalid "word 2" (fun () -> Bitvec.word v 2);
  raises_invalid "set_word 2" (fun () -> Bitvec.set_word v 2 1L);
  raises_invalid "word -1" (fun () -> Bitvec.word v (-1))

let test_set_word_masks_tail () =
  let v = Bitvec.create 65 in
  Bitvec.set_word v 1 Int64.minus_one;
  Alcotest.(check int64) "tail masked to 1 bit" 1L (Bitvec.word v 1);
  Alcotest.(check int) "count" 1 (Bitvec.count v)

(* ---------------- Bitvec vs bool-array model (qcheck) ---------------- *)

let bits_gen =
  QCheck.make
    ~print:(fun (len, _) -> Printf.sprintf "len=%d" len)
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      list_size (int_range 0 64) (int_range 0 (Stdlib.max 0 (len - 1)))
      >>= fun sets -> return (len, sets))

let qcheck_bitvec_matches_model =
  QCheck.Test.make ~name:"bitvec matches bool-array model" ~count:200 bits_gen
    (fun (len, sets) ->
      let v = Bitvec.create len in
      let model = Array.make len false in
      List.iter
        (fun i ->
          if len > 0 then begin
            Bitvec.set v i;
            model.(i) <- true
          end)
        sets;
      let gets_ok =
        Array.for_all Fun.id (Array.init len (fun i -> Bitvec.get v i = model.(i)))
      in
      let count_ok =
        Bitvec.count v
        = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model
      in
      let first_model =
        let rec scan i =
          if i >= len then -1 else if model.(i) then i else scan (i + 1)
        in
        scan 0
      in
      let words_ok =
        (* every stored word reconstructs the model bit-for-bit *)
        let ok = ref true in
        for w = 0 to Bitvec.num_words v - 1 do
          let word = Bitvec.word v w in
          for k = 0 to 63 do
            let i = (w * 64) + k in
            let bit = Int64.logand (Int64.shift_right_logical word k) 1L = 1L in
            let expected = i < len && model.(i) in
            if bit <> expected then ok := false
          done
        done;
        !ok
      in
      gets_ok && count_ok && Bitvec.first_set v = first_model && words_ok)

let qcheck_bitvec_set_word_roundtrip =
  QCheck.Test.make ~name:"set_word/word roundtrip respects the tail" ~count:200
    QCheck.(pair (int_range 1 200) (map Int64.of_int int))
    (fun (len, pattern) ->
      let v = Bitvec.create len in
      let w = Bitvec.num_words v - 1 in
      Bitvec.set_word v w pattern;
      let stored = Bitvec.word v w in
      (* stored = pattern masked to the bits that exist *)
      let ok = ref true in
      for k = 0 to 63 do
        let i = (w * 64) + k in
        let bit = Int64.logand (Int64.shift_right_logical stored k) 1L = 1L in
        let expected =
          i < len && Int64.logand (Int64.shift_right_logical pattern k) 1L = 1L
        in
        if bit <> expected then ok := false
      done;
      !ok && Bitvec.count v <= len)

(* [first_set] runs once per matrix row in the coverage readers, so a
   call must not allocate: no closure, no boxed word. *)
let test_first_set_allocation_free () =
  let v = Bitvec.create 1000 in
  Bitvec.set v 700;
  Bitvec.set v 999;
  let sum = ref (Bitvec.first_set v) in
  let before = Gc.minor_words () in
  for _ = 1 to 2_000 do
    sum := !sum + Bitvec.first_set v
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check int) "lowest set bit" (700 * 2_001) !sum;
  Alcotest.(check (float 0.0))
    "minor words allocated across 2000 first_set calls" 0.0 delta

(* ---------------- CSR circuit vs its boxed view (qcheck) ------------- *)

let dag_gen =
  QCheck.make
    ~print:(fun (g, s) -> Printf.sprintf "gates=%d seed=%d" g s)
    QCheck.Gen.(pair (int_range 10 120) (int_range 1 1_000_000))

let qcheck_csr_circuit_consistent =
  QCheck.Test.make ~name:"CSR circuit: views, inverse adjacency, validate"
    ~count:60 dag_gen (fun (gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"k" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let n = Circuit.num_nodes c in
      let valid = Circuit.validate c = Ok () in
      (* boxed views agree with the allocation-free iterators *)
      let views_ok = ref true in
      for id = 0 to n - 1 do
        let fi = ref [] in
        Circuit.iter_fanins c id (fun s -> fi := s :: !fi);
        if Array.of_list (List.rev !fi) <> Circuit.fanins c id then
          views_ok := false;
        let fo = ref [] in
        Circuit.iter_fanouts c id (fun s -> fo := s :: !fo);
        if Array.of_list (List.rev !fo) <> Circuit.fanouts c id then
          views_ok := false;
        if Circuit.is_gate c id then begin
          match Circuit.node c id with
          | Circuit.Gate (k, fanins) ->
            if Gate.code k <> Circuit.kind_code c id then views_ok := false;
            if fanins <> Circuit.fanins c id then views_ok := false
          | Circuit.Input -> views_ok := false
        end
      done;
      (* fanouts are exactly the inverse of fanins (multiset), sorted
         ascending by sink *)
      let inverse_ok = ref true in
      let expected = Array.make n [] in
      for id = n - 1 downto 0 do
        Circuit.iter_fanins c id (fun src ->
            expected.(src) <- id :: expected.(src))
      done;
      for id = 0 to n - 1 do
        if Array.to_list (Circuit.fanouts c id) <> List.sort compare expected.(id)
        then inverse_ok := false
      done;
      valid && !views_ok && !inverse_ok)

(* ---------------- zero-allocation packed evaluation ------------------ *)

let test_eval_stripe_allocation_free () =
  let rng = Rng.create 77 in
  let c =
    Generator.layered_dag ~rng ~name:"salloc" ~num_inputs:32 ~num_outputs:16
      ~num_gates:2_000 ~depth:30 ()
  in
  (* 10 blocks: the serial loop runs two stripes *)
  let vectors = Pattern_gen.random ~rng c ~count:600 in
  let packed = P.pack_all vectors in
  let nb = P.num_blocks packed in
  let n = Circuit.num_nodes c in
  let dst : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n * nb)
  in
  Bigarray.Array1.fill dst 0L;
  let rows = P.all_rows c in
  P.eval_all_into c packed ~rows ~dst;
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    P.eval_all_into c packed ~rows ~dst
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "minor words allocated across 50 striped full-matrix evals" 0.0 delta;
  (* the same under recycled rows: the row indirection allocates
     nothing either *)
  let live = P.live_rows c ~keep:[| n - 1 |] in
  Alcotest.(check bool) "the live map reuses rows" true (live.P.n_rows < n);
  let dst : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (live.P.n_rows * nb)
  in
  P.eval_all_into c packed ~rows:live ~dst;
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    P.eval_all_into c packed ~rows:live ~dst
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "minor words allocated across 50 striped live-row evals" 0.0 delta

(* ---------------- striped / domain kernels vs Logic_sim.eval -------- *)

(* The vector counts cover the edge geometry: an empty set (zero
   blocks), exactly one full block, one block plus a one-vector tail,
   a len mod 64 <> 0 multi-block set, and, at 8 blocks per stripe, two
   stripes with a ragged tail (600 vectors, 10 blocks) and three
   stripes, one per domain of a 3-domain pool (1100 vectors, 18
   blocks). *)
let stripe_vec_counts = [| 0; 1; 64; 65; 130; 600; 1100 |]

let striped_gen =
  QCheck.make
    ~print:(fun (g, s, vi) ->
      Printf.sprintf "gates=%d seed=%d nvec=%d" g s stripe_vec_counts.(vi))
    QCheck.Gen.(
      triple (int_range 10 120) (int_range 1 1_000_000)
        (int_range 0 (Array.length stripe_vec_counts - 1)))

(* A wide, shallow circuit with levels of over a thousand gates.  130
   vectors are 3 blocks: one stripe, fewer stripes than the 3-domain
   pools below have domains. *)
let wide_case rng =
  let c =
    Generator.layered_dag ~rng ~name:"wide" ~num_inputs:32 ~num_outputs:16
      ~num_gates:3_000 ~depth:2 ()
  in
  (c, Pattern_gen.random ~rng c ~count:130)

let striped_eval_ok c vectors =
  let p = P.pack_all vectors in
  let n = Circuit.num_nodes c in
  let nb = P.num_blocks p in
  (* reference: [Logic_sim.eval], one vector at a time *)
  let reference = Array.map (Logic_sim.eval c) vectors in
  let dst : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n * nb)
  in
  let matches () =
    let ok = ref true in
    Array.iteri
      (fun v scalar ->
        for id = 0 to n - 1 do
          let word = Bigarray.Array1.get dst ((id * nb) + (v / 64)) in
          let bit = Int64.logand (Int64.shift_right_logical word (v mod 64)) 1L = 1L in
          if bit <> scalar.(id) then ok := false
        done)
      reference;
    !ok
  in
  (* serially on the caller, then as the chunks of a 3-domain pool *)
  let serial_ok =
    Bigarray.Array1.fill dst Int64.minus_one;
    P.eval_all_into c p ~rows:(P.all_rows c) ~dst;
    nb = 0 || matches ()
  in
  let domain_ok =
    Domain_pool.with_pool ~domains:3 (fun pool ->
        Bigarray.Array1.fill dst Int64.minus_one;
        P.eval_all_into ~pool c p ~rows:(P.all_rows c) ~dst;
        nb = 0 || matches ())
  in
  serial_ok && domain_ok

let qcheck_striped_matches_scalar =
  QCheck.Test.make
    ~name:"striped and domain eval_all_into = Logic_sim.eval" ~count:30
    striped_gen (fun (gates, seed, vi) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"k" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let vectors = Pattern_gen.random ~rng c ~count:stripe_vec_counts.(vi) in
      let wide, wide_vectors = wide_case rng in
      striped_eval_ok c vectors && striped_eval_ok wide wide_vectors)

let domain_faultsim_ok ~rng c vectors =
  let faults = Fault.random_population ~rng c ~count:40 ~defect_current:2e-6 in
  let measurable _ = true in
  let scalar =
    Fault_sim.detection_matrix_scalar_with c ~measurable ~vectors ~faults
  in
  List.for_all
    (fun domains ->
      Fault_sim.equal
        (Fault_sim.detection_matrix_with ~domains c ~measurable ~vectors ~faults)
        scalar)
    [ 1; 3 ]

let qcheck_domain_faultsim_matches_scalar =
  QCheck.Test.make ~name:"multi-domain detection matrix = scalar oracle"
    ~count:15 striped_gen (fun (gates, seed, vi) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"k" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let vectors = Pattern_gen.random ~rng c ~count:stripe_vec_counts.(vi) in
      let narrow_ok = domain_faultsim_ok ~rng c vectors in
      let wide, wide_vectors = wide_case rng in
      narrow_ok && domain_faultsim_ok ~rng wide wide_vectors)

(* A wide {e and} deep circuit: 1025 vectors are 17 blocks, three
   stripes of at most 8, so a 3-domain pool evaluates them
   concurrently while the live good machine hands rows freed after one
   level to the gates of a later one.  The IDDQ matrix, at 1 and 3
   domains, must match the scalar oracle. *)
let test_wide_deep_live_rows () =
  let rng = Rng.create 2024 in
  let c =
    Generator.layered_dag ~rng ~name:"widedeep" ~num_inputs:32 ~num_outputs:16
      ~num_gates:6_000 ~depth:4 ()
  in
  let vectors = Pattern_gen.random ~rng c ~count:1025 in
  let stripes = (P.num_blocks (P.pack_all vectors) + 7) / 8 in
  Alcotest.(check bool) "at least as many stripes as domains" true
    (stripes >= 3);
  let faults = Fault.random_population ~rng c ~count:60 ~defect_current:2e-6 in
  let keep =
    Array.of_list
      (List.concat_map
         (fun (inj : Fault.injected) ->
           match inj.Fault.fault with
           | Fault.Bridge (a, b) -> [ a; b ]
           | Fault.Gate_oxide_short (id, _) -> [ id ]
           | Fault.Floating_gate _ -> [])
         faults)
  in
  let live = P.live_rows c ~keep in
  Alcotest.(check bool) "the live map has fewer rows than nodes" true
    (live.P.n_rows < Circuit.num_nodes c);
  let measurable _ = true in
  let scalar =
    Fault_sim.detection_matrix_scalar_with c ~measurable ~vectors ~faults
  in
  List.iter
    (fun domains ->
      let flat =
        Fault_sim.detection_matrix_with ~domains c ~measurable ~vectors ~faults
      in
      Alcotest.(check bool)
        (Printf.sprintf "matrix = scalar oracle at %d domains" domains)
        true
        (Fault_sim.equal flat scalar))
    [ 1; 3 ]

(* ---------------- flat engine vs scalar oracle (qcheck) -------------- *)

let qcheck_flat_matches_scalar =
  QCheck.Test.make ~name:"flat detection matrix = scalar oracle" ~count:30
    dag_gen (fun (gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"k" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let vectors = Pattern_gen.random ~rng c ~count:130 in
      let faults =
        Fault.random_population ~rng c ~count:40 ~defect_current:2e-6
      in
      let measurable _ = true in
      let flat =
        Fault_sim.detection_matrix_with c ~measurable ~vectors ~faults
      in
      let scalar =
        Fault_sim.detection_matrix_scalar_with c ~measurable ~vectors ~faults
      in
      Fault_sim.equal flat scalar)

(* ---------------- packed stuck-at vs scalar detects (qcheck) --------- *)

let qcheck_stuck_at_matches_detects =
  QCheck.Test.make
    ~name:"stuck-at matrix and first vectors = scalar detects" ~count:15
    striped_gen (fun (gates, seed, vi) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"k" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let vectors = Pattern_gen.random ~rng c ~count:stripe_vec_counts.(vi) in
      (* every fifth fault keeps the scalar side cheap while still mixing
         stem and pin faults of both polarities *)
      let faults =
        List.filteri (fun i _ -> i mod 5 = 0) (Stuck_at.full_fault_list c)
      in
      let m = Stuck_at.detection_matrix c ~vectors ~faults in
      let sim = Stuck_at.fault_simulate c ~vectors ~faults in
      List.for_all Fun.id
        (List.mapi
           (fun f fault ->
             let row = m.Fault_sim.rows.(f) in
             sim.Stuck_at.first_vector.(f) = Bitvec.first_set row
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun v vector ->
                       Bitvec.get row v = Stuck_at.detects c fault vector)
                     vectors))
           faults))

(* The matrix walks a fault's cone once per 8 blocks: at 600 vectors
   (10 blocks, the last one partial) every fault takes a full walk and
   a 2-block one, which the qcheck above (at most 3 blocks) never
   reaches. *)
let test_stuck_at_matrix_multi_walk () =
  let rng = Rng.create 2024 in
  let c =
    Generator.layered_dag ~rng ~name:"w" ~num_inputs:8 ~num_outputs:3
      ~num_gates:40 ~depth:7 ()
  in
  let vectors = Pattern_gen.random ~rng c ~count:600 in
  let faults = Stuck_at.full_fault_list c in
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  List.iteri
    (fun f fault ->
      let row = m.Fault_sim.rows.(f) in
      Array.iteri
        (fun v vector ->
          if Bitvec.get row v <> Stuck_at.detects c fault vector then
            Alcotest.failf "fault %d, vector %d" f v)
        vectors)
    faults

(* ---------------- incremental c3 vs full recomputation --------------- *)

let qcheck_incremental_c3_exact =
  QCheck.Test.make ~name:"incremental c3 = module_separation recomputation"
    ~count:30
    QCheck.(pair (int_range 20 80) (int_range 1 1_000_000))
    (fun (gates, seed) ->
      let rng = Rng.create seed in
      let c =
        Generator.layered_dag ~rng ~name:"c3" ~num_inputs:5 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 6)) ()
      in
      let ch = Charac.make ~library:Library.default c in
      let n = Charac.num_gates ch in
      let k = 2 + Rng.int rng 5 in
      let p =
        Partition.create ch ~assignment:(Array.init n (fun g -> g mod k))
      in
      for _ = 1 to 60 do
        let g = Rng.int rng n in
        let target = Rng.int rng k in
        if
          Partition.size p target > 0
          && Partition.size p (Partition.module_of_gate p g) > 1
        then Partition.move_gate p g target
      done;
      (* check_consistent recomputes every module's S(M) with
         Graph_algo.module_separation and demands exact equality *)
      match Partition.check_consistent p with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "inconsistent after moves: %s" e)

let tests =
  [
    Alcotest.test_case "bitvec word bounds: len 0" `Quick test_word_bounds_len0;
    Alcotest.test_case "bitvec word bounds: len mod 64 = 0" `Quick
      test_word_bounds_multiple_of_64;
    Alcotest.test_case "bitvec set_word masks tail" `Quick
      test_set_word_masks_tail;
    Alcotest.test_case "bitvec first_set allocation-free" `Quick
      test_first_set_allocation_free;
    Alcotest.test_case "eval_stripe allocation-free" `Quick
      test_eval_stripe_allocation_free;
    QCheck_alcotest.to_alcotest qcheck_bitvec_matches_model;
    QCheck_alcotest.to_alcotest qcheck_bitvec_set_word_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_csr_circuit_consistent;
    QCheck_alcotest.to_alcotest qcheck_striped_matches_scalar;
    QCheck_alcotest.to_alcotest qcheck_domain_faultsim_matches_scalar;
    QCheck_alcotest.to_alcotest qcheck_flat_matches_scalar;
    QCheck_alcotest.to_alcotest qcheck_stuck_at_matches_detects;
    QCheck_alcotest.to_alcotest qcheck_incremental_c3_exact;
    Alcotest.test_case "wide and deep live rows = scalar oracle" `Quick
      test_wide_deep_live_rows;
    Alcotest.test_case "stuck-at matrix over several walks = scalar detects"
      `Quick test_stuck_at_matrix_multi_walk;
  ]
