module Bitvec = Iddq_util.Bitvec

type detection_matrix = Fault_sim.matrix

let num_faults (m : detection_matrix) = Array.length m.Fault_sim.rows
let num_vectors (m : detection_matrix) = m.Fault_sim.n_vectors

let detects (m : detection_matrix) ~fault ~vector =
  Bitvec.get m.Fault_sim.rows.(fault) vector

let num_detectable (m : detection_matrix) =
  Array.fold_left
    (fun acc row -> if Bitvec.is_empty row then acc else acc + 1)
    0 m.Fault_sim.rows

let first_detection (m : detection_matrix) =
  Array.map Bitvec.first_set m.Fault_sim.rows

let coverage_curve (m : detection_matrix) =
  let nf = num_faults m in
  let nv = m.Fault_sim.n_vectors in
  (* Fault dropping collapses the curve to a histogram of first
     detections followed by a prefix sum: O(faults x words + vectors)
     instead of the old O(faults x vectors) boxed-bool sweep. *)
  let firsts = Array.make nv 0 in
  Array.iter
    (fun row ->
      let v = Bitvec.first_set row in
      if v >= 0 then firsts.(v) <- firsts.(v) + 1)
    m.Fault_sim.rows;
  let curve = Array.make nv 0.0 in
  let hit = ref 0 in
  for v = 0 to nv - 1 do
    hit := !hit + firsts.(v);
    curve.(v) <- (if nf = 0 then 1.0 else float_of_int !hit /. float_of_int nf)
  done;
  curve

let selection_mask (m : detection_matrix) selection =
  let sel = Bitvec.create m.Fault_sim.n_vectors in
  Array.iter (fun v -> Bitvec.set sel v) selection;
  sel

let coverage_of_selection (m : detection_matrix) selection =
  let nf = num_faults m in
  if nf = 0 then 1.0
  else begin
    let sel = selection_mask m selection in
    let hit =
      Array.fold_left
        (fun acc row -> if Bitvec.intersects row sel then acc + 1 else acc)
        0 m.Fault_sim.rows
    in
    float_of_int hit /. float_of_int nf
  end

(* Vector-major transpose (a fault bit-set per vector) plus the
   detectable-fault set — shared by greedy compaction and the
   minimizers below. *)
let transpose (m : detection_matrix) =
  let nf = num_faults m in
  let nv = m.Fault_sim.n_vectors in
  let columns = Array.init nv (fun _ -> Bitvec.create nf) in
  let detectable = Bitvec.create nf in
  Array.iteri
    (fun f row ->
      if not (Bitvec.is_empty row) then begin
        Bitvec.set detectable f;
        Bitvec.iter_set row (fun v -> Bitvec.set columns.(v) f)
      end)
    m.Fault_sim.rows;
  (columns, detectable)

(* Greedy passes over [uncovered] (consumed in place): each pass keeps
   the first vector with the strictly largest
   [popcount (column AND uncovered)]. *)
let greedy_cover columns uncovered kept =
  while not (Bitvec.is_empty uncovered) do
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun v col ->
        let gain = Bitvec.inter_count col uncovered in
        if gain > !best_gain then begin
          best_gain := gain;
          best := v
        end)
      columns;
    (* every uncovered fault is detectable, so a useful vector exists *)
    assert (!best >= 0);
    kept := !best :: !kept;
    Bitvec.diff_inplace uncovered columns.(!best)
  done

let sorted_dedup l =
  let arr = Array.of_list (List.sort_uniq compare l) in
  arr

(* Greedy set cover on popcount.  The fault-major rows are transposed
   once into vector-major columns; each pass then scores a candidate
   vector as [popcount (column AND uncovered)] — word operations
   instead of the old O(vectors x faults) boxed-bool inner loop per
   pass.  Tie-break (first vector with the strictly largest gain)
   matches the original scalar loop, so selections are identical. *)
let compact (m : detection_matrix) =
  let columns, uncovered = transpose m in
  let kept = ref [] in
  greedy_cover columns uncovered kept;
  sorted_dedup !kept

let essential_vectors (m : detection_matrix) =
  let essentials = ref [] in
  Array.iter
    (fun row -> if Bitvec.count row = 1 then essentials := Bitvec.first_set row :: !essentials)
    m.Fault_sim.rows;
  sorted_dedup !essentials

let minimize_essential (m : detection_matrix) =
  let columns, uncovered = transpose m in
  let essentials = essential_vectors m in
  let kept = ref [] in
  Array.iter
    (fun v ->
      kept := v :: !kept;
      Bitvec.diff_inplace uncovered columns.(v))
    essentials;
  greedy_cover columns uncovered kept;
  sorted_dedup !kept

let refine (m : detection_matrix) selection =
  let nf = num_faults m in
  let nv = m.Fault_sim.n_vectors in
  Array.iter
    (fun v ->
      if v < 0 || v >= nv then
        invalid_arg "Coverage.refine: selection index out of range")
    selection;
  (* how many selected vectors cover each fault; a vector is redundant
     iff every fault it detects has another selected detector *)
  let cover = Array.make nf 0 in
  let selected = Array.make nv false in
  Array.iter (fun v -> selected.(v) <- true) selection;
  let columns, _ = transpose m in
  for v = 0 to nv - 1 do
    if selected.(v) then
      Bitvec.iter_set columns.(v) (fun f -> cover.(f) <- cover.(f) + 1)
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to nv - 1 do
      if selected.(v) then begin
        let redundant = ref true in
        Bitvec.iter_set columns.(v) (fun f ->
            if cover.(f) < 2 then redundant := false);
        if !redundant && not (Bitvec.is_empty columns.(v)) then begin
          selected.(v) <- false;
          Bitvec.iter_set columns.(v) (fun f -> cover.(f) <- cover.(f) - 1);
          changed := true
        end
      end
    done
  done;
  (* vectors detecting nothing never help coverage: drop them too *)
  let kept = ref [] in
  for v = nv - 1 downto 0 do
    if selected.(v) && not (Bitvec.is_empty columns.(v)) then kept := v :: !kept
  done;
  Array.of_list !kept

let minimize_refined (m : detection_matrix) = refine m (compact m)
