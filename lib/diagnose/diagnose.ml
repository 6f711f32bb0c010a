module Bitvec = Iddq_util.Bitvec
module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Partition = Iddq_core.Partition
module Charac = Iddq_analysis.Charac
module Fault = Iddq_defects.Fault
module Fault_sim = Iddq_defects.Fault_sim

type signature = { n_vectors : int; fails : Bitvec.t array }

type mode = Exact | Noisy of float

type candidate = {
  fault : int;
  class_id : int;
  distance : int;
  log_likelihood : float;
}

type summary = {
  faults : int;
  detectable : int;
  classes : int;
  silent : int;
  max_class : int;
  expected_ambiguity : float;
  entropy_bits : float;
}

type accuracy = {
  trials : int;
  top_k : int;
  epsilon : float;
  top1_class : float;
  top1_module : float;
  topk_module : float;
}

type t = {
  n_vectors : int;
  n_modules : int;
  mod_ids : int array;  (* dense index -> live module id *)
  faults : Fault.injected array;
  rows : Bitvec.t array;  (* per fault: detecting vectors at its module *)
  row_counts : int array;  (* popcount of each row *)
  fault_mod : int array;  (* per fault: dense module index *)
  class_ids : int array;  (* per fault: ambiguity class *)
  class_members : int array array;  (* per class: fault indices, ascending *)
  silent_cls : int option;
}

let check_epsilon e =
  if not (e > 0. && e < 0.5) then
    invalid_arg
      (Printf.sprintf "Diagnose: epsilon %g outside (0, 0.5)" e)

(* Ambiguity-class key: the packed row words prefixed by the module
   index.  Silent faults (empty row) are indistinguishable wherever
   they sit, so they all map to one module-less key. *)
let class_key ~module_idx row =
  if Bitvec.is_empty row then "~silent"
  else begin
    let b = Buffer.create (8 * (Bitvec.num_words row + 1)) in
    Buffer.add_string b (string_of_int module_idx);
    Buffer.add_char b ':';
    for w = 0 to Bitvec.num_words row - 1 do
      Buffer.add_int64_le b (Bitvec.word row w)
    done;
    Buffer.contents b
  end

let build ?domains ?metrics partition ~vectors ~faults =
  let circuit = Charac.circuit (Partition.charac partition) in
  let mod_ids = Array.of_list (Partition.module_ids partition) in
  let dense = Hashtbl.create (Array.length mod_ids) in
  Array.iteri (fun i id -> Hashtbl.replace dense id i) mod_ids;
  let matrix =
    Fault_sim.detection_matrix ?domains ?metrics partition ~vectors ~faults
  in
  let faults = Array.of_list faults in
  let fault_mod =
    Array.map
      (fun (inj : Fault.injected) ->
        let gate = Fault.location circuit inj.fault in
        Hashtbl.find dense (Partition.module_of_gate partition gate))
      faults
  in
  let row_counts = Array.map Bitvec.count matrix.rows in
  (* Ambiguity classes: identical (module, row) — one shared class for
     all silent faults. *)
  let by_key = Hashtbl.create (Array.length faults) in
  let class_ids = Array.make (Array.length faults) 0 in
  let next = ref 0 in
  let silent_cls = ref None in
  Array.iteri
    (fun f row ->
      let key = class_key ~module_idx:fault_mod.(f) row in
      let id =
        match Hashtbl.find_opt by_key key with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.replace by_key key id;
            if Bitvec.is_empty row then silent_cls := Some id;
            id
      in
      class_ids.(f) <- id)
    matrix.rows;
  let members = Array.make !next [] in
  for f = Array.length faults - 1 downto 0 do
    let c = class_ids.(f) in
    members.(c) <- f :: members.(c)
  done;
  {
    n_vectors = matrix.n_vectors;
    n_modules = Array.length mod_ids;
    mod_ids;
    faults;
    rows = matrix.rows;
    row_counts;
    fault_mod;
    class_ids;
    class_members = Array.map Array.of_list members;
    silent_cls = !silent_cls;
  }

let num_faults t = Array.length t.faults
let num_vectors t = t.n_vectors
let num_modules t = t.n_modules
let module_ids t = Array.copy t.mod_ids
let fault t i = t.faults.(i)
let fault_module t i = t.fault_mod.(i)
let detectable t i = t.row_counts.(i) > 0

let predicted t i =
  let fails =
    Array.init t.n_modules (fun m ->
        if m = t.fault_mod.(i) then Bitvec.copy t.rows.(i)
        else Bitvec.create t.n_vectors)
  in
  { n_vectors = t.n_vectors; fails }

let observe_noisy ~rng ~epsilon t i =
  if epsilon < 0. || epsilon >= 0.5 then
    invalid_arg
      (Printf.sprintf "Diagnose.observe_noisy: epsilon %g outside [0, 0.5)"
         epsilon);
  let s = predicted t i in
  if epsilon > 0. then
    Array.iter
      (fun row ->
        for v = 0 to t.n_vectors - 1 do
          if Rng.float rng 1.0 < epsilon then
            let w = v / 64 in
            Bitvec.set_word row w
              (Int64.logxor (Bitvec.word row w)
                 (Int64.shift_left 1L (v land 63)))
        done)
      s.fails;
  s

let check_shape t (s : signature) =
  if s.n_vectors <> t.n_vectors || Array.length s.fails <> t.n_modules then
    invalid_arg
      (Printf.sprintf
         "Diagnose: signature shape %dx%d does not match engine %dx%d"
         (Array.length s.fails) s.n_vectors t.n_modules t.n_vectors)

(* d(f) = total + |row_f| - 2 * |obs_{m(f)} AND row_f|: the observation
   must be explained as row_f at module m(f) and silence elsewhere, so
   every observed fail outside the overlap and every predicted fail the
   observation misses each cost one. *)
let distance_with ~total t (s : signature) f =
  total + t.row_counts.(f)
  - (2 * Bitvec.inter_count s.fails.(t.fault_mod.(f)) t.rows.(f))

let distance t s f =
  check_shape t s;
  let total = Array.fold_left (fun acc r -> acc + Bitvec.count r) 0 s.fails in
  distance_with ~total t s f

let rank ?(mode = Exact) t s =
  check_shape t s;
  (match mode with Noisy e -> check_epsilon e | Exact -> ());
  let total = Array.fold_left (fun acc r -> acc + Bitvec.count r) 0 s.fails in
  let n = Array.length t.faults in
  let candidate f d log_likelihood =
    { fault = f; class_id = t.class_ids.(f); distance = d; log_likelihood }
  in
  match mode with
  | Exact ->
      (* the (distance, index) order cut to distance 0 is index order *)
      let kept = ref [] in
      for f = n - 1 downto 0 do
        if distance_with ~total t s f = 0 then
          kept := candidate f 0 0. :: !kept
      done;
      !kept
  | Noisy e ->
      (* a counting sort by distance, each bucket filled in index order,
         is the (distance, index) order *)
      let ds = Array.init n (distance_with ~total t s) in
      let top = Array.fold_left Int.max 0 ds in
      let starts = Array.make (top + 2) 0 in
      Array.iter (fun d -> starts.(d + 1) <- starts.(d + 1) + 1) ds;
      for d = 1 to top + 1 do
        starts.(d) <- starts.(d) + starts.(d - 1)
      done;
      let order = Array.make n 0 in
      Array.iteri
        (fun f d ->
          order.(starts.(d)) <- f;
          starts.(d) <- starts.(d) + 1)
        ds;
      let cells = float_of_int (t.n_modules * t.n_vectors) in
      let log_hit = log (1. -. e) and log_flip = log e in
      Array.fold_right
        (fun f acc ->
          let d = float_of_int ds.(f) in
          candidate f ds.(f) (((cells -. d) *. log_hit) +. (d *. log_flip))
          :: acc)
        order []

(* Distinct module ids in first-appearance order of a ranking. *)
let ranked_modules t ranked =
  let seen = Array.make t.n_modules false in
  List.filter_map
    (fun c ->
      let m = t.fault_mod.(c.fault) in
      if seen.(m) then None
      else begin
        seen.(m) <- true;
        Some t.mod_ids.(m)
      end)
    ranked

let top_modules ?mode t s = ranked_modules t (rank ?mode t s)

let num_classes t = Array.length t.class_members
let class_of t i = t.class_ids.(i)
let class_members t c = Array.copy t.class_members.(c)
let silent_class t = t.silent_cls

let diagnosability t =
  let n = Array.length t.faults in
  let detectable =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 t.row_counts
  in
  let silent =
    match t.silent_cls with
    | None -> 0
    | Some c -> Array.length t.class_members.(c)
  in
  let max_class =
    Array.fold_left (fun m c -> max m (Array.length c)) 0 t.class_members
  in
  let fn = float_of_int n in
  let expected, entropy =
    if n = 0 then (0., 0.)
    else
      Array.fold_left
        (fun (ea, h) c ->
          let s = float_of_int (Array.length c) in
          let p = s /. fn in
          (ea +. (s *. s /. fn), h -. (p *. (log p /. log 2.))))
        (0., 0.) t.class_members
  in
  {
    faults = n;
    detectable;
    classes = Array.length t.class_members;
    silent;
    max_class;
    expected_ambiguity = expected;
    entropy_bits = entropy;
  }

let c6_diagnosability t =
  let s = diagnosability t in
  if s.faults = 0 then 0. else log s.expected_ambiguity

let measure_accuracy ~rng ?(epsilon = 0.) ?(top_k = 3) ?(trials = 50) t =
  if trials < 0 then invalid_arg "Diagnose.measure_accuracy: trials < 0";
  if top_k < 1 then invalid_arg "Diagnose.measure_accuracy: top_k < 1";
  let det =
    Array.of_list
      (List.filter
         (fun f -> detectable t f)
         (List.init (num_faults t) (fun f -> f)))
  in
  if Array.length det = 0 || trials = 0 then
    {
      trials = 0;
      top_k;
      epsilon;
      top1_class = 0.;
      top1_module = 0.;
      topk_module = 0.;
    }
  else begin
    let mode = if epsilon > 0. then Noisy epsilon else Exact in
    let c1 = ref 0 and m1 = ref 0 and mk = ref 0 in
    for _ = 1 to trials do
      let truth = det.(Rng.int rng (Array.length det)) in
      let obs =
        if epsilon > 0. then observe_noisy ~rng ~epsilon t truth
        else predicted t truth
      in
      let ranked = rank ~mode t obs in
      (match ranked with
      | best :: _ when best.class_id = t.class_ids.(truth) -> incr c1
      | _ -> ());
      let true_id = t.mod_ids.(t.fault_mod.(truth)) in
      (match ranked_modules t ranked with
      | first :: _ as mods ->
          if first = true_id then incr m1;
          let rec within k = function
            | [] -> false
            | _ when k = 0 -> false
            | m :: rest -> m = true_id || within (k - 1) rest
          in
          if within top_k mods then incr mk
      | [] -> ())
    done;
    let rate r = float_of_int !r /. float_of_int trials in
    {
      trials;
      top_k;
      epsilon;
      top1_class = rate c1;
      top1_module = rate m1;
      topk_module = rate mk;
    }
  end
