module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate

type t = { cc0 : int array; cc1 : int array; co : int array }

let unobservable = max_int / 2
let sat_add a b = if a >= unobservable || b >= unobservable then unobservable else a + b

let compute c =
  let n = Circuit.num_nodes c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  let cc0 = Array.make n 1 and cc1 = Array.make n 1 in
  (* controllability: forward topological pass *)
  for id = Circuit.num_inputs c to n - 1 do
    let fold f init =
      let acc = ref init in
      for k = offsets.(id) to offsets.(id + 1) - 1 do
        acc := f !acc targets.(k)
      done;
      !acc
    in
    let sum cc = fold (fun acc src -> sat_add acc cc.(src)) 0 in
    let minimum cc = fold (fun acc src -> Stdlib.min acc cc.(src)) unobservable in
    (* parity DP for wide XOR/XNOR: cheapest assignment cost reaching
       even / odd parity over the fanins *)
    let parity () =
      fold
        (fun (even, odd) src ->
          let c0 = cc0.(src) and c1 = cc1.(src) in
          ( Stdlib.min (sat_add even c0) (sat_add odd c1),
            Stdlib.min (sat_add odd c0) (sat_add even c1) ))
        (0, unobservable)
    in
    let first () = targets.(offsets.(id)) in
    let c0, c1 =
      match Circuit.gate_kind c id with
      | Gate.And -> (minimum cc0, sum cc1)
      | Gate.Nand -> (sum cc1, minimum cc0)
      | Gate.Or -> (sum cc0, minimum cc1)
      | Gate.Nor -> (minimum cc1, sum cc0)
      | Gate.Not -> (cc1.(first ()), cc0.(first ()))
      | Gate.Buff -> (cc0.(first ()), cc1.(first ()))
      | Gate.Xor -> parity ()
      | Gate.Xnor ->
        let even, odd = parity () in
        (odd, even)
    in
    cc0.(id) <- sat_add c0 1;
    cc1.(id) <- sat_add c1 1
  done;
  (* observability: reverse topological pass *)
  let co = Array.make n unobservable in
  Array.iter (fun id -> co.(id) <- 0) (Circuit.outputs c);
  for id = n - 1 downto Circuit.num_inputs c do
    let kind = Circuit.gate_kind c id in
    let s = offsets.(id) and e = offsets.(id + 1) - 1 in
    let side_cost keep =
      (* cost of setting the *other* fanins to the non-controlling
         (or cheapest, for parity gates) values *)
      let total = ref 0 in
      for k = s to e do
        if k <> keep then begin
          let src = targets.(k) in
          let contribution =
            match kind with
            | Gate.And | Gate.Nand -> cc1.(src)
            | Gate.Or | Gate.Nor -> cc0.(src)
            | Gate.Not | Gate.Buff -> 0
            | Gate.Xor | Gate.Xnor -> Stdlib.min cc0.(src) cc1.(src)
          in
          total := sat_add !total contribution
        end
      done;
      !total
    in
    for k = s to e do
      let src = targets.(k) in
      let through = sat_add (sat_add co.(id) (side_cost k)) 1 in
      if through < co.(src) then co.(src) <- through
    done
  done;
  { cc0; cc1; co }

let cc0 t id = t.cc0.(id)
let cc1 t id = t.cc1.(id)
let co t id = t.co.(id)

let gate_testability t c g =
  let id = Circuit.node_of_gate c g in
  sat_add t.co.(id) (Stdlib.min t.cc0.(id) t.cc1.(id))

let hardest_gates t c ~count =
  let ng = Circuit.num_gates c in
  let scored = Array.init ng (fun g -> (gate_testability t c g, g)) in
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare b a) scored;
  Array.map snd (Array.sub scored 0 (Stdlib.min count ng))
