module Circuit = Iddq_netlist.Circuit
module Logic_sim = Iddq_patterns.Logic_sim

type t = {
  realized_profile : float array;
  realized_max : float;
  toggles_per_pair : int array;
}

let measure ch ~gates ~vectors =
  if Array.length vectors < 2 then
    invalid_arg "Activity.measure: need at least two vectors";
  let circuit = Charac.circuit ch in
  let depth = Charac.depth ch in
  let worst = Array.make (depth + 1) 0.0 in
  let toggles = Array.make (Array.length vectors - 1) 0 in
  (* node values come from [Logic_sim.eval], the one scalar logic
     reference; it rejects a vector of the wrong width *)
  let previous = ref (Logic_sim.eval circuit vectors.(0)) in
  for v = 1 to Array.length vectors - 1 do
    let current = Logic_sim.eval circuit vectors.(v) in
    let pair_profile = Array.make (depth + 1) 0.0 in
    let pair_toggles = ref 0 in
    Array.iter
      (fun g ->
        let id = Circuit.node_of_gate circuit g in
        if !previous.(id) <> current.(id) then begin
          incr pair_toggles;
          (* the transient is drawn at the gate's switching depth *)
          let slot = Charac.gate_depth ch g in
          pair_profile.(slot) <-
            pair_profile.(slot) +. Charac.peak_current ch g
        end)
      gates;
    toggles.(v - 1) <- !pair_toggles;
    for slot = 0 to depth do
      if pair_profile.(slot) > worst.(slot) then worst.(slot) <- pair_profile.(slot)
    done;
    previous := current
  done;
  {
    realized_profile = worst;
    realized_max = Array.fold_left Stdlib.max 0.0 worst;
    toggles_per_pair = toggles;
  }

let pessimism_ratio ch ~gates t =
  let estimated = Switching.max_transient_current ch gates in
  if t.realized_max <= 0.0 then infinity else estimated /. t.realized_max
