module Charac = Iddq_analysis.Charac
module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Partition = Iddq_core.Partition

(* Every gate beyond a member's BFS horizon sits at exactly [cutoff],
   so the summed separation from a free gate [h] to the module [M]
   under construction is

     dist_sum h = cutoff * |M| - adj h,
     adj h = sum over members g with h in g's ball of (cutoff - sep g h)

   and adding a member touches only its ball.  Minimal [dist_sum] is
   maximal [adj]; each visited gate adds at least 1 to [adj].

   So only the free gates some member's ball reached — the module's
   frontier — can beat [adj] 0, and no step scans all n gates: the
   next gate comes from the frontier, or, when it is empty, from the
   first free ids (a path-compressed next-free array); seeds come from
   the level-major gate order.

   The same balls price the finished modules: a member's ball reaching
   an earlier member of the open module adds [cutoff - sep] to the
   module's in-horizon closeness A(M), each pair once, from its later
   end.  So S(M) comes out of the clustering and the partition is
   built with no S(M) sweep of its own. *)
let partition ch ~module_sizes =
  let n = Charac.num_gates ch in
  if List.exists (fun s -> s <= 0) module_sizes then
    invalid_arg "Standard.partition: non-positive module size";
  if List.fold_left ( + ) 0 module_sizes <> n then
    invalid_arg "Standard.partition: sizes must sum to the gate count";
  let u = Charac.undirected ch in
  let cutoff = Charac.separation_cutoff ch in
  let c = Charac.circuit ch in
  let ni = Circuit.num_inputs c in
  let level_order = Circuit.Csr.level_order c in
  let b = Graph_algo.make_bfs u in
  let assignment = Array.make n (-1) in
  let free_count = ref n in
  (* adj.(h) for free h; -1 marks a clustered gate, below every free one *)
  let adj = Array.make n 0 in
  (* the free gates with adj > 0, and gates clustered since they
     joined (dropped by the next scan); each joins once per module *)
  let frontier = Array.make n 0 and n_frontier = ref 0 in
  (* next_free.(g) <= the smallest free id >= g; [n] when none *)
  let next_free = Array.init (n + 1) Fun.id in
  let find_free g =
    let g = ref g in
    while next_free.(!g) <> !g do
      (* path halving *)
      let h = next_free.(next_free.(!g)) in
      next_free.(!g) <- h;
      g := h
    done;
    !g
  in
  (* the first free gate in level-major order: the lowest level with a
     free gate, its smallest free id; the cursor only advances *)
  let seed_pos = ref 0 in
  let seed_gate () =
    while adj.(level_order.(!seed_pos) - ni) < 0 do
      incr seed_pos
    done;
    level_order.(!seed_pos) - ni
  in
  (* near_free.(g) for free g: the sum of (cutoff - sep g h) over the
     free h <> g in g's ball, less the open module's share, adj g,
     which is subtracted when the module closes.  Every gate starts
     free, so one sweep seeds it. *)
  let near_free = Array.make n 0 in
  Graph_algo.multi_bfs_sweep u (Graph_algo.make_multi_bfs u) ~cutoff
    ~pass:(fun _ _ -> ())
    (fun h d lo hi ->
      if d > 0 then
        near_free.(h) <-
          near_free.(h)
          + ((Graph_algo.popcount lo + Graph_algo.popcount hi) * (cutoff - d + 1)));
  (* A(M) of every module; the open one's accumulates as it grows *)
  let near_module = Array.make (List.length module_sizes) 0 in
  let open_module = ref 0 in
  (* the gates of one BFS level, at distance d: separation d - 1 *)
  let reach queue first stop d =
    let near = cutoff - d + 1 in
    for i = first to stop - 1 do
      let h = queue.(i) in
      let a = adj.(h) in
      if a >= 0 then begin
        if a = 0 then begin
          frontier.(!n_frontier) <- h;
          incr n_frontier
        end;
        adj.(h) <- a + near
      end
      else begin
        let m = !open_module in
        if assignment.(h) = m then near_module.(m) <- near_module.(m) + near
      end
    done
  in
  let add_to_module m g =
    open_module := m;
    assignment.(g) <- m;
    adj.(g) <- -1;
    next_free.(g) <- g + 1;
    decr free_count;
    Graph_algo.bfs_levels u b ~cutoff g reach
  in
  let close_module () =
    for i = 0 to !n_frontier - 1 do
      let h = frontier.(i) in
      let a = adj.(h) in
      if a > 0 then begin
        near_free.(h) <- near_free.(h) - a;
        adj.(h) <- 0
      end
    done;
    n_frontier := 0
  in
  (* Tie-break score: summed separation from [g] to the other free
     gates, by the same horizon identity. *)
  let score g = (cutoff * (!free_count - 1)) - (near_free.(g) - adj.(g)) in
  (* Huge tie sets arise while everything is beyond the cutoff; only
     the first [max_ties] in gate order are scored. *)
  let max_ties = 16 in
  let ties = Array.make max_ties 0 in
  let n_ties = ref 0 in
  (* keep [ties] the smallest ids seen, ascending *)
  let add_tie h =
    if !n_ties < max_ties || h < ties.(max_ties - 1) then begin
      let i = ref (Stdlib.min !n_ties (max_ties - 1)) in
      while !i > 0 && ties.(!i - 1) > h do
        ties.(!i) <- ties.(!i - 1);
        decr i
      done;
      ties.(!i) <- h;
      if !n_ties < max_ties then incr n_ties
    end
  in
  let next_gate () =
    let best_adj = ref 0 and kept = ref 0 in
    n_ties := 0;
    for i = 0 to !n_frontier - 1 do
      let h = frontier.(i) in
      let a = adj.(h) in
      if a > 0 then begin
        frontier.(!kept) <- h;
        incr kept;
        if a > !best_adj then begin
          best_adj := a;
          ties.(0) <- h;
          n_ties := 1
        end
        else if a = !best_adj then add_tie h
      end
    done;
    n_frontier := !kept;
    if !n_ties = 0 then begin
      (* nothing within the horizon: every free gate ties at adj 0 *)
      let g = ref (find_free 0) in
      while !g < n && !n_ties < max_ties do
        ties.(!n_ties) <- !g;
        incr n_ties;
        g := find_free (!g + 1)
      done
    end;
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
      add_to_module m (seed_gate ());
      for _ = 2 to size do
        add_to_module m (next_gate ())
      done;
      close_module ())
    module_sizes;
  Partition.create_with_near ch ~assignment ~near:near_module

let partition_uniform ch ~num_modules =
  let n = Charac.num_gates ch in
  if num_modules < 1 || num_modules > n then
    invalid_arg "Standard.partition_uniform: bad module count";
  let base = n / num_modules and extra = n mod num_modules in
  let sizes =
    List.init num_modules (fun i -> base + if i < extra then 1 else 0)
  in
  partition ch ~module_sizes:sizes
