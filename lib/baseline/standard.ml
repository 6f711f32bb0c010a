module Charac = Iddq_analysis.Charac
module Graph_algo = Iddq_netlist.Graph_algo
module Partition = Iddq_core.Partition

(* Every gate beyond a member's BFS horizon sits at exactly [cutoff],
   so the summed separation from a free gate [h] to the module [M]
   under construction is

     dist_sum h = cutoff * |M| - adj h,
     adj h = sum over members g with h in g's ball of (cutoff - sep g h)

   and adding a member touches only its ball.  Minimal [dist_sum] is
   maximal [adj]; each visited gate adds at least 1 to [adj]. *)
let partition ch ~module_sizes =
  let n = Charac.num_gates ch in
  if List.exists (fun s -> s <= 0) module_sizes then
    invalid_arg "Standard.partition: non-positive module size";
  if List.fold_left ( + ) 0 module_sizes <> n then
    invalid_arg "Standard.partition: sizes must sum to the gate count";
  let u = Charac.undirected ch in
  let cutoff = Charac.separation_cutoff ch in
  let b = Graph_algo.make_bfs u in
  let assignment = Array.make n (-1) in
  let free_count = ref n in
  (* adj.(h) for free h; -1 marks a clustered gate, below every free one *)
  let adj = Array.make n 0 in
  let seed_gate () =
    (* free gate as near to a primary input as possible *)
    let best = ref (-1) and best_depth = ref max_int in
    for g = 0 to n - 1 do
      if adj.(g) >= 0 && Charac.gate_depth ch g < !best_depth then begin
        best := g;
        best_depth := Charac.gate_depth ch g
      end
    done;
    !best
  in
  (* near_free.(g) for free g: the sum of (cutoff - sep g h) over the
     free h <> g in g's ball.  Every gate starts free, so one sweep
     seeds it; each gate clustered then leaves its ball. *)
  let near_free = Array.make n 0 in
  Graph_algo.multi_bfs_sweep u (Graph_algo.make_multi_bfs u) ~cutoff
    ~pass:(fun _ _ -> ())
    (fun h d bits ->
      if d > 0 then
        near_free.(h) <-
          near_free.(h) + (Graph_algo.popcount bits * (cutoff - d + 1)));
  let add_to_module m g =
    assignment.(g) <- m;
    adj.(g) <- -1;
    decr free_count;
    Graph_algo.bfs_from u b ~cutoff g;
    for i = 1 to Graph_algo.bfs_visited_count b - 1 do
      let h = Graph_algo.bfs_visited b i in
      let near = cutoff - Graph_algo.bfs_visited_separation b i in
      near_free.(h) <- near_free.(h) - near;
      if adj.(h) >= 0 then adj.(h) <- adj.(h) + near
    done
  in
  (* Tie-break score: summed separation from [g] to the other free
     gates, by the same horizon identity. *)
  let score g = (cutoff * (!free_count - 1)) - near_free.(g) in
  (* Huge tie sets arise while everything is beyond the cutoff; only
     the first [max_ties] in gate order are scored. *)
  let max_ties = 16 in
  let ties = Array.make max_ties 0 in
  let next_gate () =
    let best_adj = ref (-1) and n_ties = ref 0 in
    for g = 0 to n - 1 do
      let a = adj.(g) in
      if a > !best_adj then begin
        best_adj := a;
        ties.(0) <- g;
        n_ties := 1
      end
      else if a = !best_adj && a >= 0 && !n_ties < max_ties then begin
        ties.(!n_ties) <- g;
        incr n_ties
      end
    done;
    (* tie-break: maximal summed path length to the unclustered *)
    let best = ref ties.(0) in
    if !n_ties > 1 then begin
      let best_score = ref min_int in
      for i = 0 to !n_ties - 1 do
        let s = score ties.(i) in
        if s > !best_score then begin
          best := ties.(i);
          best_score := s
        end
      done
    end;
    !best
  in
  List.iteri
    (fun m size ->
      for g = 0 to n - 1 do
        if adj.(g) > 0 then adj.(g) <- 0
      done;
      add_to_module m (seed_gate ());
      for _ = 2 to size do
        add_to_module m (next_gate ())
      done)
    module_sizes;
  Partition.create ch ~assignment

let partition_uniform ch ~num_modules =
  let n = Charac.num_gates ch in
  if num_modules < 1 || num_modules > n then
    invalid_arg "Standard.partition_uniform: bad module count";
  let base = n / num_modules and extra = n mod num_modules in
  let sizes =
    List.init num_modules (fun i -> base + if i < extra then 1 else 0)
  in
  partition ch ~module_sizes:sizes
