module Rng = Iddq_util.Rng
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Cost_eval = Iddq_core.Cost_eval

type journal = (int * int) array

let random_live_module rng p =
  Rng.choose_list rng (Partition.module_ids p)

(* The planners make every draw and no move: they return the moves an
   in-place mutation of [p] would make, in order. *)
let mutate rng ~step p =
  if Partition.num_modules p < 2 then [||]
  else begin
    (* a source with boundary gates exists whenever K >= 2 and the
       partition covers a connected circuit; retry a few picks *)
    let rec pick_source tries =
      if tries = 0 then None
      else begin
        let src = random_live_module rng p in
        let boundary = Partition.boundary_gates p src in
        if Array.length boundary > 0 then Some boundary
        else pick_source (tries - 1)
      end
    in
    match pick_source 8 with
    | None -> [||]
    | Some boundary ->
      let bound = Stdlib.min step (Array.length boundary) in
      let m_move = 1 + Rng.int rng bound in
      let chosen = Rng.sample_without_replacement rng m_move boundary in
      (* later picks see [p] through the moves planned so far (newest
         first), as they would after moving in place *)
      let pending = ref [] in
      let module_of h =
        match List.assoc_opt h !pending with
        | Some m -> m
        | None -> Partition.module_of_gate p h
      in
      Array.iter
        (fun g ->
          match Partition.neighbour_modules ~module_of p g with
          | [] -> ()
          | targets -> pending := (g, Rng.choose_list rng targets) :: !pending)
        chosen;
      Array.of_list (List.rev !pending)
  end

let monte_carlo rng p =
  if Partition.num_modules p < 2 then [||]
  else begin
    let src = random_live_module rng p in
    let target =
      let rec pick () =
        let m = random_live_module rng p in
        if m = src then pick () else m
      in
      pick ()
    in
    let gates = Partition.members p src in
    let count = 1 + Rng.int rng (Array.length gates) in
    let chosen = Rng.sample_without_replacement rng count gates in
    Array.map (fun g -> (g, target)) chosen
  end

(* The build steps: replay a planned journal on a copy of its parent.
   A mutation moves its gates one by one; a Monte-Carlo jump moves
   gates of one module into one target, so it goes over as one
   batch. *)
let replay journal child =
  Array.iter (fun (gate, target) -> Cost_eval.move child ~gate ~target) journal

let replay_batch journal child =
  if Array.length journal > 0 then
    Cost_eval.move_gates child (Array.map fst journal)
      ~target:(snd journal.(0))

let problem () =
  {
    Es.copy = Cost_eval.copy;
    cost = Cost_eval.penalized;
    mutate = (fun rng ~step e -> replay (mutate rng ~step (Cost_eval.partition e)));
    monte_carlo =
      (fun rng e -> replay_batch (monte_carlo rng (Cost_eval.partition e)));
  }

let optimize ?weights ~metrics ?(params = Es.default_params) ?on_generation
    ~rng ~starts () =
  let eval_starts =
    List.map
      (fun p -> Cost_eval.create ?weights ~metrics (Partition.copy p))
      starts
  in
  let best, trace =
    Es.run ?on_generation params rng (problem ()) eval_starts
  in
  ( {
      Es.solution = Cost_eval.partition best.Es.solution;
      cost = best.Es.cost;
      age = best.Es.age;
      step = best.Es.step;
    },
    trace )
