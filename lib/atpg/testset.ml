module Circuit = Iddq_netlist.Circuit
module Stuck_at = Iddq_defects.Stuck_at
module Coverage = Iddq_defects.Coverage
module Rng = Iddq_util.Rng

type strategy = Greedy | Essential | Refined

let strategy_to_string = function
  | Greedy -> "greedy"
  | Essential -> "essential"
  | Refined -> "refined"

let strategy_of_string = function
  | "greedy" -> Some Greedy
  | "essential" -> Some Essential
  | "refined" -> Some Refined
  | _ -> None

let strategies = [ Greedy; Essential; Refined ]

type stats = {
  random : int;
  generated : int;
  untestable : int;
  aborted : int;
  targeted : int;
}

type gen = {
  vectors : bool array array;
  matrix : Coverage.detection_matrix;
  coverage : float;
  efficiency : float;
  stats : stats;
  remaining : int;
}

(* The fault-dropping generation loop: simulate what the current set
   already catches (packed, {!Stuck_at.fault_simulate} under
   {!Stuck_at.undetected}), then PODEM each survivor on one prepared
   context; every generated cube is concretized and the {e concrete}
   vector re-simulated against the whole remaining list (the same
   packed path, one vector), so one vector can drop many faults
   beyond its target. *)
let generate ?max_backtracks ?(budget = max_int) ~rng ?(initial = [||]) c
    faults =
  let podem = Podem.prepare c in
  let live = ref (Stuck_at.undetected c ~vectors:initial ~faults) in
  let added = ref [] in
  let generated = ref 0
  and untestable = ref 0
  and aborted = ref 0
  and targeted = ref 0 in
  let rec work () =
    match !live with
    | [] -> ()
    | _ when !targeted >= budget -> ()
    | fault :: rest -> begin
      incr targeted;
      match Podem.generate ?max_backtracks podem fault with
      | Podem.Untestable ->
        incr untestable;
        live := rest;
        work ()
      | Podem.Aborted ->
        incr aborted;
        live := rest;
        work ()
      | Podem.Test cube ->
        let vector = Podem.concretize ~rng cube in
        incr generated;
        added := vector :: !added;
        live := Stuck_at.undetected c ~vectors:[| vector |] ~faults:rest;
        work ()
    end
  in
  work ();
  let vector_arr = Array.append initial (Array.of_list (List.rev !added)) in
  let total = List.length faults in
  let matrix = Stuck_at.detection_matrix c ~vectors:vector_arr ~faults in
  let detected = Coverage.num_detectable matrix in
  {
    vectors = vector_arr;
    matrix;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    efficiency =
      (if total = 0 then 1.0
       else float_of_int (detected + !untestable) /. float_of_int total);
    stats =
      {
        random = Array.length initial;
        generated = !generated;
        untestable = !untestable;
        aborted = !aborted;
        targeted = !targeted;
      };
    remaining = List.length !live;
  }

let minimize strategy m =
  match strategy with
  | Greedy -> Coverage.compact m
  | Essential -> Coverage.minimize_essential m
  | Refined -> Coverage.minimize_refined m

let select vectors selection = Array.map (fun v -> vectors.(v)) selection
