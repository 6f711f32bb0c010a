module Rng = Iddq_util.Rng
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Cost_eval = Iddq_core.Cost_eval

type params = { initial_temperature : float; cooling : float; steps : int }

let default_params =
  { initial_temperature = 5.0; cooling = 0.999; steps = 20_000 }

let check_params p =
  if p.initial_temperature <= 0.0 then invalid_arg "Annealing: T0 <= 0";
  if p.cooling <= 0.0 || p.cooling >= 1.0 then
    invalid_arg "Annealing: cooling must be in (0,1)";
  if p.steps < 1 then invalid_arg "Annealing: steps < 1"

type move = { gate : int; src : int; target : int }

(* Propose moving one random boundary gate to a random neighbouring
   module; returns the move without applying it, or None if none
   exists.  The source module is filtered out of the candidate targets
   so a proposal can never be a no-op counted as an accepted move. *)
let propose rng p =
  if Partition.num_modules p < 2 then None
  else begin
    let rec try_module tries =
      if tries = 0 then None
      else begin
        let src = Rng.choose_list rng (Partition.module_ids p) in
        let boundary = Partition.boundary_gates p src in
        (* keep every move reversible: never empty the source module *)
        if Array.length boundary = 0 || Partition.size p src = 1 then
          try_module (tries - 1)
        else begin
          let g = Rng.choose rng boundary in
          match
            List.filter (fun m -> m <> src) (Partition.neighbour_modules p g)
          with
          | [] -> try_module (tries - 1)
          | targets ->
            let target = Rng.choose_list rng targets in
            Some { gate = g; src; target }
        end
      end
    in
    try_module 8
  end

let optimize ?weights ?(params = default_params) ~metrics ?on_move ~rng start =
  check_params params;
  let current = Partition.copy start in
  let eval = Cost_eval.create ?weights ~metrics current in
  let current_cost = ref (Cost_eval.penalized eval) in
  let best = ref (Partition.copy current) in
  let best_cost = ref !current_cost in
  let temperature = ref params.initial_temperature in
  for step = 1 to params.steps do
    (match propose rng current with
    | None -> ()
    | Some { gate; src; target } ->
      Cost_eval.move eval ~gate ~target;
      let candidate_cost = Cost_eval.penalized eval in
      let delta = candidate_cost -. !current_cost in
      let accepted =
        delta <= 0.0
        || Rng.float rng 1.0 < exp (-.delta /. !temperature)
      in
      (match on_move with
      | Some f -> f ~step ~gate ~src ~target ~accepted
      | None -> ());
      if accepted then begin
        current_cost := candidate_cost;
        if candidate_cost < !best_cost then begin
          best := Partition.copy current;
          best_cost := candidate_cost
        end
      end
      else
        (* undo; the proposal never empties the source, so it is alive *)
        Cost_eval.move eval ~gate ~target:src);
    temperature := !temperature *. params.cooling
  done;
  (!best, Cost.evaluate ?weights ~metrics !best)
