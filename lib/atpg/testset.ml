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

(* The fault-dropping generation loop, on one {!Stuck_at.Block}: the
   initial vectors are loaded 64 at a time and each load drops what it
   detects from the live list; then PODEM targets each survivor on one
   prepared context.  Every generated cube is concretized and the
   {e concrete} vector joins the pending block — the vectors since the
   last sweep, at most one packed block of 64, which the block holds.
   A fault reaching the head of the live list is first checked against
   the pending block and dropped if some vector detects it; when the
   block fills, the rest of the list is filtered through it and a new
   block starts.  So a fault is targeted exactly when no earlier
   vector detects it, as if each vector were swept at once. *)
(* One packed block: the most vectors {!Stuck_at.Block} holds. *)
let block_vectors = 64

let generate ?max_backtracks ?(budget = max_int) ~rng ?(initial = [||]) c
    faults =
  let podem = Podem.prepare c in
  let block = Stuck_at.Block.create c in
  let live = ref faults in
  let drop () =
    live := List.filter (fun f -> not (Stuck_at.Block.detects block f)) !live
  in
  let n_initial = Array.length initial in
  for b = 0 to ((n_initial + block_vectors - 1) / block_vectors) - 1 do
    let lo = b * block_vectors in
    Stuck_at.Block.load block
      (Array.sub initial lo (Stdlib.min block_vectors (n_initial - lo)));
    drop ()
  done;
  let added = ref [] and pending = ref [] and n_pending = ref 0 in
  let generated = ref 0
  and untestable = ref 0
  and aborted = ref 0
  and targeted = ref 0 in
  let sweep () =
    if !n_pending > 0 then begin
      drop ();
      pending := [];
      n_pending := 0
    end
  in
  let rec work () =
    match !live with
    | [] -> ()
    | _ when !targeted >= budget -> sweep ()
    | fault :: rest
      when !n_pending > 0 && Stuck_at.Block.detects block fault ->
      live := rest;
      work ()
    | fault :: rest -> begin
      incr targeted;
      live := rest;
      match Podem.generate ?max_backtracks podem fault with
      | Podem.Untestable ->
        incr untestable;
        work ()
      | Podem.Aborted ->
        incr aborted;
        work ()
      | Podem.Test cube ->
        let vector = Podem.concretize ~rng cube in
        incr generated;
        added := vector :: !added;
        pending := vector :: !pending;
        incr n_pending;
        Stuck_at.Block.load block (Array.of_list (List.rev !pending));
        if !n_pending = block_vectors then sweep ();
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
