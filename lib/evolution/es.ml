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
  mutate : Iddq_util.Rng.t -> step:int -> 'a -> unit;
  monte_carlo : Iddq_util.Rng.t -> 'a -> unit;
}

type 'a individual = { solution : 'a; cost : float; age : int; step : int }

type generation_report = {
  generation : int;
  best_cost : float;
  mean_cost : float;
  population : int;
}

let check_params p =
  if p.mu < 1 then invalid_arg "Es.run: mu < 1";
  if p.lambda < 0 || p.chi < 0 then invalid_arg "Es.run: negative offspring";
  if p.lambda + p.chi = 0 then invalid_arg "Es.run: no offspring at all";
  if p.omega < 1 then invalid_arg "Es.run: omega < 1";
  if p.m_init < 1 then invalid_arg "Es.run: m_init < 1";
  if p.epsilon < 0.0 then invalid_arg "Es.run: epsilon < 0";
  if p.domains < 1 then invalid_arg "Es.run: domains < 1"

(* The child's step width is normally distributed around the parent's
   (variance epsilon), clipped to >= 1. *)
let child_step rng params parent_step =
  let s =
    Rng.gaussian rng ~mu:(float_of_int parent_step) ~sigma:params.epsilon
  in
  Stdlib.max 1 (int_of_float (Float.round s))

let run ?(on_generation = fun _ -> ()) params rng (problem : _ problem) starts =
  check_params params;
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
    (* Build every child first (all rng draws happen here, in the same
       order whatever [domains] is), then evaluate the costs — the only
       expensive, rng-free part — in parallel. *)
    let specs = ref [] in
    List.iter
      (fun parent ->
        for _ = 1 to params.lambda do
          let sol = problem.copy parent.solution in
          let step = child_step rng params parent.step in
          problem.mutate rng ~step sol;
          specs := (sol, step) :: !specs
        done;
        for _ = 1 to params.chi do
          let sol = problem.copy parent.solution in
          problem.monte_carlo rng sol;
          let step = child_step rng params parent.step in
          specs := (sol, step) :: !specs
        done)
      !population;
    (* [!specs] is in reverse creation order, matching the list an
       interleaved cons loop would have produced. *)
    let spec_arr = Array.of_list !specs in
    let costs = Array.make (Array.length spec_arr) 0.0 in
    ignore
      (Domain_pool.run domain_pool ~chunks:(Array.length spec_arr) (fun i ->
           costs.(i) <- problem.cost (fst spec_arr.(i))));
    let children = ref [] in
    for i = Array.length spec_arr - 1 downto 0 do
      let sol, step = spec_arr.(i) in
      children := { solution = sol; cost = costs.(i); age = 0; step } :: !children
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
