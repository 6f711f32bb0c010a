module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Library = Iddq_celllib.Library
module Cell = Iddq_celllib.Cell

type t = {
  circuit : Circuit.t;
  library : Library.t;
  cells : Cell.t array; (* per gate, fanin-derated *)
  words : int; (* words per transition-time set: depth / bits + 1 *)
  times : int array; (* gate g's set: words g*words .. g*words+words-1 *)
  low_power : bool array;
  undirected : Graph_algo.undirected;
}

(* Slot [s] of a set is bit [s mod bits] of its word [s / bits]; every
   bit of a native int is used, the sign bit included. *)
let bits = Sys.int_size

let make ~library circuit =
  let ng = Circuit.num_gates circuit in
  let ni = Circuit.num_inputs circuit in
  let words = (Circuit.depth circuit / bits) + 1 in
  let times = Array.make (ng * words) 0 in
  (* T(g) = union over fanins of (T(fanin) + 1); inputs switch at 0, so
     an input fanin gives slot 1 and a gate fanin its set shifted up one
     slot, the top bit of each word carried into the next.  A fanin's
     slots stop at its level, below the depth, so no carry leaves the
     last word. *)
  let offsets = Circuit.Csr.fanin_offsets circuit in
  let targets = Circuit.Csr.fanin_targets circuit in
  for g = 0 to ng - 1 do
    let mine = g * words in
    let id = g + ni in
    for k = offsets.(id) to offsets.(id + 1) - 1 do
      let src = targets.(k) in
      if src < ni then times.(mine) <- times.(mine) lor 2
      else begin
        let theirs = (src - ni) * words in
        let carry = ref 0 in
        for j = 0 to words - 1 do
          let x = times.(theirs + j) in
          times.(mine + j) <- times.(mine + j) lor (x lsl 1) lor !carry;
          carry := x lsr (bits - 1)
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
    words;
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
  slot >= 1
  && slot <= gate_depth t g
  && t.times.((g * t.words) + (slot / bits)) land (1 lsl (slot mod bits)) <> 0

(* Lowest set bit first: [x land (-x)] isolates it and the popcount of
   the ones below it is its position. *)
let iter_switch_slots t g f =
  let base = g * t.words in
  for j = 0 to t.words - 1 do
    let x = ref t.times.(base + j) in
    while !x <> 0 do
      let low = !x land (- !x) in
      f ((j * bits) + Graph_algo.popcount (low - 1));
      x := !x lxor low
    done
  done

let switch_slot_count t g =
  let base = g * t.words in
  let n = ref 0 in
  for j = 0 to t.words - 1 do
    n := !n + Graph_algo.popcount t.times.(base + j)
  done;
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
