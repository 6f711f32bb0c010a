module Rng = Iddq_util.Rng
module Charac = Iddq_analysis.Charac
module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Technology = Iddq_celllib.Technology
module Partition = Iddq_core.Partition

let target_module_size ?(margin = 0.75) ch =
  let n = Charac.num_gates ch in
  let total_leak = ref 0.0 in
  for g = 0 to n - 1 do
    total_leak := !total_leak +. Charac.leakage ch g
  done;
  let mean_leak = !total_leak /. float_of_int (Stdlib.max 1 n) in
  let tech = Charac.technology ch in
  let feasible =
    tech.Technology.iddq_threshold
    /. (tech.Technology.required_discriminability *. mean_leak)
  in
  let size = int_of_float (Float.floor (margin *. feasible)) in
  Stdlib.max 1 (Stdlib.min n size)

(* Grow one module by chains: follow free fanouts toward the outputs;
   when a chain dies, reseed from a free gate adjacent to the module
   (keeping it connected), else from the free gate closest to the
   primary inputs. *)
let chain_assignment ~rng ?module_size ch =
  let n = Charac.num_gates ch in
  let size_cap =
    match module_size with Some s -> Stdlib.max 1 s | None -> target_module_size ch
  in
  let c = Charac.circuit ch in
  let u = Charac.undirected ch in
  let levels = Circuit.Csr.levels c in
  let ni = Circuit.num_inputs c in
  let assignment = Array.make n (-1) in
  let free_count = ref n in
  (* free gates of minimum depth, with random tie-breaking *)
  let min_depth_free () =
    let best = ref max_int in
    for g = 0 to n - 1 do
      if assignment.(g) < 0 && levels.(ni + g) < !best then
        best := levels.(ni + g)
    done;
    let candidates = ref [] in
    for g = 0 to n - 1 do
      if assignment.(g) < 0 && levels.(ni + g) = !best then
        candidates := g :: !candidates
    done;
    Rng.choose_list rng !candidates
  in
  let module_id = ref (-1) in
  let module_members = ref [] in
  let module_count = ref 0 in
  let open_module () =
    incr module_id;
    module_members := [];
    module_count := 0
  in
  let claim g =
    assignment.(g) <- !module_id;
    module_members := g :: !module_members;
    incr module_count;
    decr free_count
  in
  (* a free gate adjacent (undirected) to the open module, if any *)
  let adjacent_free () =
    let found = ref [] in
    List.iter
      (fun g ->
        Graph_algo.iter_neighbours u g (fun h ->
            if assignment.(h) < 0 then found := h :: !found))
      !module_members;
    match !found with [] -> None | l -> Some (Rng.choose_list rng l)
  in
  let fo_off = Circuit.Csr.fanout_offsets c in
  let fo_tgt = Circuit.Csr.fanout_targets c in
  (* free fanout gates, ascending (every fanout of a node is a gate) *)
  let free_fanout g =
    let options = ref [] in
    for k = fo_off.(g + ni + 1) - 1 downto fo_off.(g + ni) do
      let h = fo_tgt.(k) - ni in
      if assignment.(h) < 0 then options := h :: !options
    done;
    match !options with [] -> None | l -> Some (Rng.choose_list rng l)
  in
  open_module ();
  while !free_count > 0 do
    if !module_count >= size_cap then open_module ();
    (* seed a chain *)
    let seed =
      if !module_count = 0 then min_depth_free ()
      else begin
        match adjacent_free () with
        | Some g -> g
        | None -> min_depth_free ()
      end
    in
    claim seed;
    (* follow free fanouts toward a primary output *)
    let rec follow g =
      if !module_count < size_cap then begin
        match free_fanout g with
        | None -> ()
        | Some next ->
          claim next;
          follow next
      end
    in
    follow seed
  done;
  assignment

let chain_partition ~rng ?module_size ch =
  Partition.create ch ~assignment:(chain_assignment ~rng ?module_size ch)

(* Every rng draw first, in the order [count] [chain_partition] calls
   would make them; then one separation sweep for all assignments. *)
let population ~rng ?module_size ~count ch =
  let assignments = List.init count (fun _ -> chain_assignment ~rng ?module_size ch) in
  Partition.create_many ch ~assignments
