module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate

let signal_probabilities c =
  let n = Circuit.num_nodes c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  let p = Array.make n 0.5 in
  for id = Circuit.num_inputs c to n - 1 do
    (* fanins in stored (CSR) order, so every float fold is reproducible *)
    let fold f init =
      let acc = ref init in
      for k = offsets.(id) to offsets.(id + 1) - 1 do
        acc := f !acc p.(targets.(k))
      done;
      !acc
    in
    let conj () = fold (fun acc q -> acc *. q) 1.0 in
    let disj () = 1.0 -. fold (fun acc q -> acc *. (1.0 -. q)) 1.0 in
    (* P(odd number of ones), folded pairwise *)
    let parity () = fold (fun acc q -> (acc *. (1.0 -. q)) +. ((1.0 -. acc) *. q)) 0.0 in
    let first () = p.(targets.(offsets.(id))) in
    p.(id) <-
      (match Circuit.gate_kind c id with
      | Gate.And -> conj ()
      | Gate.Nand -> 1.0 -. conj ()
      | Gate.Or -> disj ()
      | Gate.Nor -> 1.0 -. disj ()
      | Gate.Xor -> parity ()
      | Gate.Xnor -> 1.0 -. parity ()
      | Gate.Not -> 1.0 -. first ()
      | Gate.Buff -> first ())
  done;
  p

let switching_probabilities c =
  let p = signal_probabilities c in
  Array.init (Circuit.num_gates c) (fun g ->
      let prob = p.(Circuit.node_of_gate c g) in
      2.0 *. prob *. (1.0 -. prob))

let expected_profile ch gates =
  let c = Charac.circuit ch in
  let p_sw = switching_probabilities c in
  let profile = Array.make (Charac.depth ch + 1) 0.0 in
  Array.iter
    (fun g ->
      let slots = Charac.switch_slot_count ch g in
      if slots > 0 then begin
        let share =
          p_sw.(g) *. Charac.peak_current ch g /. float_of_int slots
        in
        Charac.iter_switch_slots ch g (fun slot ->
            profile.(slot) <- profile.(slot) +. share)
      end)
    gates;
  profile

let expected_max_current ch gates =
  Array.fold_left Stdlib.max 0.0 (expected_profile ch gates)
