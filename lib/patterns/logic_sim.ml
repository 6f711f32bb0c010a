module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate

type values = bool array

(* Straight over the CSR arrays: no per-gate fanin array, no closure —
   this is the inner loop of every scalar estimator and of the
   vector-at-a-time oracle.  Gates are visited in id order, which is
   topological. *)
let eval c inputs =
  if Array.length inputs <> Circuit.num_inputs c then
    invalid_arg "Logic_sim.eval: input vector length mismatch";
  let n = Circuit.num_nodes c in
  let values = Array.make n false in
  Array.blit inputs 0 values 0 (Array.length inputs);
  let kinds = Circuit.Csr.kinds c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  for id = Circuit.num_inputs c to n - 1 do
    let s = Array.unsafe_get offsets id in
    let e = Array.unsafe_get offsets (id + 1) in
    if e <= s then invalid_arg "Logic_sim.eval: gate with no fanins";
    let code = Char.code (Bytes.unsafe_get kinds id) in
    let v =
      match code with
      | 0 | 1 ->
        (* And / Nand *)
        let acc = ref true in
        for k = s to e - 1 do
          acc := !acc && Array.unsafe_get values (Array.unsafe_get targets k)
        done;
        if code = 0 then !acc else not !acc
      | 2 | 3 ->
        (* Or / Nor *)
        let acc = ref false in
        for k = s to e - 1 do
          acc := !acc || Array.unsafe_get values (Array.unsafe_get targets k)
        done;
        if code = 2 then !acc else not !acc
      | 4 | 5 ->
        (* Xor / Xnor *)
        let acc = ref false in
        for k = s to e - 1 do
          if Array.unsafe_get values (Array.unsafe_get targets k) then
            acc := not !acc
        done;
        if code = 4 then !acc else not !acc
      | 6 -> not (Array.unsafe_get values (Array.unsafe_get targets s))
      | _ -> Array.unsafe_get values (Array.unsafe_get targets s)
    in
    Array.unsafe_set values id v
  done;
  values

let output_values c values =
  Array.map (fun id -> values.(id)) (Circuit.outputs c)

let toggles c before after =
  let count = ref 0 in
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    if before.(id) <> after.(id) then incr count
  done;
  !count

let toggled_gates c before after =
  let out = ref [] in
  for id = Circuit.num_nodes c - 1 downto Circuit.num_inputs c do
    if before.(id) <> after.(id) then out := Circuit.gate_of_node c id :: !out
  done;
  Array.of_list !out
