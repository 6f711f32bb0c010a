module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Library = Iddq_celllib.Library
module Cell = Iddq_celllib.Cell

type t = {
  circuit : Circuit.t;
  library : Library.t;
  cells : Cell.t array; (* per gate, fanin-derated *)
  times : Bytes.t array; (* per gate: bitset over slots 1..depth *)
  low_power : bool array;
  undirected : Graph_algo.undirected;
}

let bit_get bs i = Char.code (Bytes.get bs (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bs i =
  let byte = i lsr 3 in
  Bytes.set bs byte (Char.chr (Char.code (Bytes.get bs byte) lor (1 lsl (i land 7))))

let make ~library circuit =
  let ng = Circuit.num_gates circuit in
  let levels = Circuit.Csr.levels circuit in
  let words = (Circuit.depth circuit / 8) + 1 in
  let times = Array.init ng (fun _ -> Bytes.make words '\000') in
  (* T(g) = union over fanins of (T(fanin) + 1); inputs switch at 0 *)
  let ni = Circuit.num_inputs circuit in
  let offsets = Circuit.Csr.fanin_offsets circuit in
  let targets = Circuit.Csr.fanin_targets circuit in
  for g = 0 to ng - 1 do
    let mine = times.(g) in
    let id = g + ni in
    for k = offsets.(id) to offsets.(id + 1) - 1 do
      let src = targets.(k) in
      if src < ni then bit_set mine 1
      else begin
        let theirs = times.(src - ni) in
        for slot = 1 to levels.(src) do
          if bit_get theirs slot then bit_set mine (slot + 1)
        done
      end
    done
  done;
  let cells =
    Array.init ng (fun g ->
        let id = Circuit.node_of_gate circuit g in
        let kind = Circuit.gate_kind circuit id in
        Library.cell_for library kind ~fanin:(Circuit.fanin_count circuit id))
  in
  {
    circuit;
    library;
    cells;
    times;
    low_power = Array.make ng false;
    undirected = Graph_algo.undirected_of_circuit circuit;
  }

let circuit t = t.circuit
let library t = t.library
let technology t = Library.technology t.library
let num_gates t = Array.length t.cells
let depth t = Circuit.depth t.circuit
let gate_depth t g = Circuit.level t.circuit (Circuit.node_of_gate t.circuit g)
let peak_current t g = t.cells.(g).Cell.peak_current
let leakage t g = t.cells.(g).Cell.leakage
let delay t g = t.cells.(g).Cell.delay
let drive_resistance t g = t.cells.(g).Cell.drive_resistance
let output_capacitance t g = t.cells.(g).Cell.output_capacitance
let rail_capacitance t g = t.cells.(g).Cell.rail_capacitance

let can_switch_at t g slot =
  slot >= 1 && slot <= gate_depth t g && bit_get t.times.(g) slot

let iter_switch_slots t g f =
  for slot = 1 to gate_depth t g do
    if bit_get t.times.(g) slot then f slot
  done

let switch_slot_count t g =
  let n = ref 0 in
  iter_switch_slots t g (fun _ -> incr n);
  !n

let with_low_power t ~gates =
  let cells = Array.copy t.cells in
  let low_power = Array.copy t.low_power in
  Array.iter
    (fun g ->
      if not low_power.(g) then begin
        low_power.(g) <- true;
        cells.(g) <- Cell.low_power_variant cells.(g)
      end)
    gates;
  { t with cells; low_power }

let is_low_power t g = t.low_power.(g)

let undirected t = t.undirected
let separation_cutoff t = (technology t).Iddq_celllib.Technology.separation_cutoff
