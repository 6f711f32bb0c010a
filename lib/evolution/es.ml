module Rng = Iddq_util.Rng
module Domain_pool = Iddq_util.Domain_pool

type params = {
  mu : int;
  lambda : int;
  chi : int;
  omega : int;
  m_init : int;
  epsilon : float;
  max_generations : int;
  stall_generations : int;
  domains : int;
}

let default_params =
  {
    mu = 4;
    lambda = 7;
    chi = 2;
    omega = 5;
    m_init = 4;
    epsilon = 1.5;
    max_generations = 500;
    stall_generations = 60;
    domains = 1;
  }

type 'a problem = {
  copy : 'a -> 'a;
  cost : 'a -> float;
  mutate : Iddq_util.Rng.t -> step:int -> 'a -> 'a -> unit;
  monte_carlo : Iddq_util.Rng.t -> 'a -> 'a -> unit;
}

type 'a individual = { solution : 'a; cost : float; age : int; step : int }

type generation_report = {
  generation : int;
  best_cost : float;
  mean_cost : float;
  population : int;
}

let validate p =
  if p.mu < 1 then Error "mu < 1"
  else if p.lambda < 0 || p.chi < 0 then Error "negative offspring"
  else if p.lambda + p.chi = 0 then Error "no offspring at all"
  else if p.omega < 1 then Error "omega < 1"
  else if p.m_init < 1 then Error "m_init < 1"
  else if p.epsilon < 0.0 then Error "epsilon < 0"
  else if p.max_generations < 0 then Error "max_generations < 0"
  else if p.domains < 1 then Error "domains < 1"
  else Ok ()

(* The child's step width is normally distributed around the parent's
   (variance epsilon), clipped to >= 1. *)
let child_step rng params parent_step =
  let s =
    Rng.gaussian rng ~mu:(float_of_int parent_step) ~sigma:params.epsilon
  in
  Stdlib.max 1 (int_of_float (Float.round s))

let run ?(on_generation = fun _ -> ()) params rng (problem : _ problem) starts =
  Result.iter_error (fun msg -> invalid_arg ("Es.run: " ^ msg))
    (validate params);
  if starts = [] then invalid_arg "Es.run: no start solutions";
  let make_individual solution =
    { solution; cost = problem.cost solution; age = 0; step = params.m_init }
  in
  let population = ref (List.map (fun s -> make_individual (problem.copy s)) starts) in
  let best =
    ref
      (List.fold_left
         (fun acc ind -> if ind.cost < acc.cost then ind else acc)
         (List.hd !population) (List.tl !population))
  in
  let best_frozen ind = { ind with solution = problem.copy ind.solution } in
  best := best_frozen !best;
  let trace = ref [] in
  let stall = ref 0 in
  let generation = ref 0 in
  let continue_ = ref true in
  (* One pool for the whole run: its workers are spawned once and
     sleep between generations. *)
  Domain_pool.with_pool ~domains:params.domains @@ fun domain_pool ->
  while !continue_ && !generation < params.max_generations do
    incr generation;
    (* Plan every child first: all rng draws happen here, on the
       calling domain, in the same order whatever [domains] is.  Each
       plan is a build step replayed on a copy of its parent. *)
    let specs = ref [] in
    List.iter
      (fun parent ->
        for _ = 1 to params.lambda do
          let step = child_step rng params parent.step in
          let build = problem.mutate rng ~step parent.solution in
          specs := (parent.solution, build, step) :: !specs
        done;
        for _ = 1 to params.chi do
          let build = problem.monte_carlo rng parent.solution in
          let step = child_step rng params parent.step in
          specs := (parent.solution, build, step) :: !specs
        done)
      !population;
    (* [!specs] is in reverse creation order, matching the list an
       interleaved cons loop would have produced.  Copying, building
       and costing are rng-free and run on the pool; parents are only
       read. *)
    let spec_arr = Array.of_list !specs in
    (* slot [i] holds child [i]'s parent until the pool replaces it *)
    let sols = Array.map (fun (parent, _, _) -> parent) spec_arr in
    let costs = Array.make (Array.length spec_arr) 0.0 in
    ignore
      (Domain_pool.run domain_pool ~chunks:(Array.length spec_arr) (fun i ->
           let _, build, _ = spec_arr.(i) in
           let sol = problem.copy sols.(i) in
           build sol;
           sols.(i) <- sol;
           costs.(i) <- problem.cost sol));
    let children = ref [] in
    for i = Array.length spec_arr - 1 downto 0 do
      let _, _, step = spec_arr.(i) in
      children := { solution = sols.(i); cost = costs.(i); age = 0; step } :: !children
    done;
    let aged_parents =
      List.filter_map
        (fun ind ->
          if ind.age + 1 > params.omega then None
          else Some { ind with age = ind.age + 1 })
        !population
    in
    let pool = aged_parents @ !children in
    let sorted =
      List.sort (fun a b -> Float.compare a.cost b.cost) pool
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    population := take params.mu sorted;
    (match !population with
    | [] ->
      (* every parent exceeded its lifetime and there were no children:
         impossible because lambda + chi >= 1, but keep the invariant *)
      population := [ !best ]
    | _ -> ());
    let gen_best = List.hd !population in
    if gen_best.cost < !best.cost then begin
      best := best_frozen gen_best;
      stall := 0
    end
    else incr stall;
    let costs = List.map (fun i -> i.cost) !population in
    let report =
      {
        generation = !generation;
        best_cost = !best.cost;
        mean_cost =
          List.fold_left ( +. ) 0.0 costs /. float_of_int (List.length costs);
        population = List.length !population;
      }
    in
    trace := report :: !trace;
    on_generation report;
    if !stall >= params.stall_generations then continue_ := false
  done;
  (!best, List.rev !trace)
