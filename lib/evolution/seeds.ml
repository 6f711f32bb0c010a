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

(* Fenwick tree over positions [0, size): point add, and select by
   prefix sum in O(log size). *)
module Fenwick = struct
  type t = { tree : int array; top : int (* highest power of 2 <= size *) }

  let create size =
    let top = ref 1 in
    while 2 * !top <= size do
      top := 2 * !top
    done;
    { tree = Array.make (size + 1) 0; top = !top }

  (* every position holding 1: node j covers its lowest set bit *)
  let create_ones size =
    let t = create size in
    for j = 1 to size do
      t.tree.(j) <- j land -j
    done;
    t

  let clear t = Array.fill t.tree 0 (Array.length t.tree) 0

  let add t i delta =
    let size = Array.length t.tree - 1 in
    let j = ref (i + 1) in
    while !j <= size do
      t.tree.(!j) <- t.tree.(!j) + delta;
      j := !j + (!j land - !j)
    done

  (* The position holding the [r]-th unit (1-based, r <= total), and
     the rank of that unit within the position. *)
  let select t r =
    let size = Array.length t.tree - 1 in
    let pos = ref 0 and r = ref r and step = ref t.top in
    while !step > 0 do
      let next = !pos + !step in
      if next <= size && t.tree.(next) < !r then begin
        pos := next;
        r := !r - t.tree.(next)
      end;
      step := !step lsr 1
    done;
    (!pos, !r)
end

(* Grow one module by chains: follow free fanouts toward the outputs;
   when a chain dies, reseed from a free gate adjacent to the module
   (keeping it connected), else from the free gate closest to the
   primary inputs.

   Each draw is one [Rng.int] over a candidate count, and the pick is
   the element a candidate list would hold at the drawn index, but no
   list is built and no step scans all gates:
   - adjacent to the module: the candidates are one entry per
     (member, free neighbour) adjacency, oldest member first, each
     member's neighbours descending.  A Fenwick tree over the members'
     claim positions holds their free-neighbour counts, so the draw
     selects the member by prefix sum and then walks its neighbours;
   - closest to the inputs: the candidates are the free gates of the
     lowest level holding one, descending.  That level only rises, and
     every level below it is claimed, so a Fenwick tree over the
     level-major gate order selects the drawn gate by its global rank;
   - free fanouts: the entries of the fanout segment, repeats counted,
     in stored order. *)
let chain_assignment ~rng ?module_size ch =
  let n = Charac.num_gates ch in
  let size_cap =
    match module_size with Some s -> Stdlib.max 1 s | None -> target_module_size ch
  in
  let c = Charac.circuit ch in
  let u = Charac.undirected ch in
  let levels = Circuit.Csr.levels c in
  let level_order = Circuit.Csr.level_order c in
  let level_offsets = Circuit.Csr.level_offsets c in
  let ni = Circuit.num_inputs c in
  let assignment = Array.make n (-1) in
  let free_count = ref n in
  (* free gates per level, and the free bit of each level-order slot *)
  let level_free = Array.make (Array.length level_offsets) 0 in
  for l = 1 to Array.length level_offsets - 1 do
    level_free.(l) <- level_offsets.(l) - level_offsets.(l - 1)
  done;
  let level_pos = Array.make n 0 in
  Array.iteri (fun p id -> level_pos.(id - ni) <- p) level_order;
  let level_tree = Fenwick.create_ones n in
  let low_level = ref 1 in
  (* the k-th largest free gate of the lowest level with one, k drawn *)
  let min_depth_free () =
    while level_free.(!low_level) = 0 do
      incr low_level
    done;
    let count = level_free.(!low_level) in
    let k = Rng.int rng count in
    let p, _ = Fenwick.select level_tree (count - k) in
    level_order.(p) - ni
  in
  (* the open module: members by claim position, each one's count of
     free neighbours in [adj_tree] and [adj_count], summed in [adj_total] *)
  let slots = Stdlib.min size_cap (Stdlib.max n 1) in
  let members = Array.make slots 0 in
  let slot = Array.make n 0 in
  let adj_count = Array.make slots 0 in
  let adj_tree = Fenwick.create slots in
  let adj_total = ref 0 in
  let module_id = ref (-1) in
  let module_count = ref 0 in
  let open_module () =
    incr module_id;
    if !module_count > 0 then Fenwick.clear adj_tree;
    module_count := 0;
    adj_total := 0
  in
  let claim g =
    let m = !module_id in
    assignment.(g) <- m;
    decr free_count;
    let l = levels.(ni + g) in
    level_free.(l) <- level_free.(l) - 1;
    Fenwick.add level_tree level_pos.(g) (-1);
    let own = ref 0 in
    Graph_algo.iter_neighbours u g (fun h ->
        let a = assignment.(h) in
        if a < 0 then incr own
        else if a = m then begin
          let s = slot.(h) in
          adj_count.(s) <- adj_count.(s) - 1;
          Fenwick.add adj_tree s (-1);
          decr adj_total
        end);
    let s = !module_count in
    members.(s) <- g;
    slot.(g) <- s;
    adj_count.(s) <- !own;
    Fenwick.add adj_tree s !own;
    adj_total := !adj_total + !own;
    incr module_count
  in
  (* a free gate adjacent (undirected) to the open module; -1 if none *)
  let adjacent_free () =
    if !adj_total = 0 then -1
    else begin
      let k = Rng.int rng !adj_total in
      let s, r = Fenwick.select adj_tree (k + 1) in
      (* the r-th free neighbour descending is this one ascending *)
      let skip = ref (adj_count.(s) - r) and found = ref (-1) in
      Graph_algo.iter_neighbours u members.(s) (fun h ->
          if assignment.(h) < 0 then begin
            if !skip = 0 then found := h;
            decr skip
          end);
      !found
    end
  in
  let fo_off = Circuit.Csr.fanout_offsets c in
  let fo_tgt = Circuit.Csr.fanout_targets c in
  (* a free fanout gate (every fanout of a node is a gate); -1 if none *)
  let free_fanout g =
    let first = fo_off.(g + ni) and stop = fo_off.(g + ni + 1) in
    let count = ref 0 in
    for k = first to stop - 1 do
      if assignment.(fo_tgt.(k) - ni) < 0 then incr count
    done;
    if !count = 0 then -1
    else begin
      let skip = ref (Rng.int rng !count) and k = ref first in
      while assignment.(fo_tgt.(!k) - ni) >= 0 || !skip > 0 do
        if assignment.(fo_tgt.(!k) - ni) < 0 then decr skip;
        incr k
      done;
      fo_tgt.(!k) - ni
    end
  in
  open_module ();
  while !free_count > 0 do
    if !module_count >= size_cap then open_module ();
    (* seed a chain *)
    let seed =
      if !module_count = 0 then min_depth_free ()
      else begin
        match adjacent_free () with -1 -> min_depth_free () | g -> g
      end
    in
    claim seed;
    (* follow free fanouts toward a primary output *)
    let rec follow g =
      if !module_count < size_cap then begin
        match free_fanout g with
        | -1 -> ()
        | next ->
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
