type node = Input | Gate of Gate.kind * int array

(* CSR (structure-of-arrays) adjacency: one byte of gate-kind code per
   node (inputs hold [input_code]), fanins and fanouts as flat target
   arrays indexed by an offsets array of length [n + 1].  Everything a
   hot kernel touches is a flat unboxed array; the [node] variant above
   survives only as a construction/inspection view. *)
type t = {
  name : string;
  num_inputs : int;
  kinds : Bytes.t; (* per node: Gate.code, or input_code for inputs *)
  fanin_offsets : int array; (* length n+1, non-decreasing *)
  fanin_targets : int array; (* concatenated fanin node ids *)
  fanout_offsets : int array; (* length n+1 *)
  fanout_targets : int array; (* concatenated fanout node ids, ascending *)
  levels : int array; (* per node: 0 for inputs, 1 + deepest fanin for gates *)
  level_order : int array; (* gate node ids, level-major, ascending per level *)
  level_offsets : int array; (* length depth+1; level l spans [l-1, l) *)
  node_names : string array;
  outputs : int array;
  output_set : bool array;
  name_index : (string, int) Hashtbl.t Lazy.t;
}

let input_code = 255

(* Counting sort of the reversed edges.  Iterating sinks in id order
   keeps each node's fanout list ascending (and preserves duplicate
   edges), exactly like the old per-node append order. *)
let build_fanouts_csr n fanin_offsets fanin_targets =
  let ne = Array.length fanin_targets in
  let fanout_offsets = Array.make (n + 1) 0 in
  for k = 0 to ne - 1 do
    let src = fanin_targets.(k) in
    fanout_offsets.(src + 1) <- fanout_offsets.(src + 1) + 1
  done;
  for id = 0 to n - 1 do
    fanout_offsets.(id + 1) <- fanout_offsets.(id + 1) + fanout_offsets.(id)
  done;
  let fill = Array.sub fanout_offsets 0 n in
  let fanout_targets = Array.make ne 0 in
  for id = 0 to n - 1 do
    for k = fanin_offsets.(id) to fanin_offsets.(id + 1) - 1 do
      let src = fanin_targets.(k) in
      fanout_targets.(fill.(src)) <- id;
      fill.(src) <- fill.(src) + 1
    done
  done;
  (fanout_offsets, fanout_targets)

(* One pass in id order levels every node (fanins have smaller ids);
   a counting sort by level then places the gates level-major, filled
   in id order like the fanouts above so each level's ids ascend.
   [level_offsets.(l)] first counts level [l]'s gates and the prefix
   sum turns it into the end of level [l]. *)
let build_levels n num_inputs fanin_offsets fanin_targets =
  let levels = Array.make n 0 in
  let depth = ref 0 in
  for id = num_inputs to n - 1 do
    let d = ref 0 in
    for k = fanin_offsets.(id) to fanin_offsets.(id + 1) - 1 do
      let l = levels.(fanin_targets.(k)) in
      if l > !d then d := l
    done;
    levels.(id) <- !d + 1;
    if !d + 1 > !depth then depth := !d + 1
  done;
  let level_offsets = Array.make (!depth + 1) 0 in
  for id = num_inputs to n - 1 do
    level_offsets.(levels.(id)) <- level_offsets.(levels.(id)) + 1
  done;
  for l = 1 to !depth do
    level_offsets.(l) <- level_offsets.(l) + level_offsets.(l - 1)
  done;
  let fill = Array.sub level_offsets 0 !depth in
  let level_order = Array.make (n - num_inputs) 0 in
  for id = num_inputs to n - 1 do
    let l = levels.(id) - 1 in
    level_order.(fill.(l)) <- id;
    fill.(l) <- fill.(l) + 1
  done;
  (levels, level_order, level_offsets)

let lazy_name_index node_names =
  lazy
    (let index = Hashtbl.create (2 * Array.length node_names) in
     Array.iteri (fun id nm -> Hashtbl.replace index nm id) node_names;
     index)

let unsafe_make_csr ~name ~num_inputs ~kinds ~fanin_offsets ~fanin_targets
    ~node_names ~outputs =
  let n = Bytes.length kinds in
  let output_set = Array.make n false in
  Array.iter (fun id -> output_set.(id) <- true) outputs;
  let fanout_offsets, fanout_targets =
    build_fanouts_csr n fanin_offsets fanin_targets
  in
  let levels, level_order, level_offsets =
    build_levels n num_inputs fanin_offsets fanin_targets
  in
  {
    name;
    num_inputs;
    kinds;
    fanin_offsets;
    fanin_targets;
    fanout_offsets;
    fanout_targets;
    levels;
    level_order;
    level_offsets;
    node_names;
    outputs;
    output_set;
    name_index = lazy_name_index node_names;
  }

let unsafe_make ~name ~nodes ~node_names ~num_inputs ~outputs =
  let n = Array.length nodes in
  let kinds = Bytes.make n (Char.chr input_code) in
  let total_fanins =
    Array.fold_left
      (fun acc -> function Input -> acc | Gate (_, fi) -> acc + Array.length fi)
      0 nodes
  in
  let fanin_offsets = Array.make (n + 1) 0 in
  let fanin_targets = Array.make total_fanins 0 in
  let pos = ref 0 in
  Array.iteri
    (fun id node ->
      fanin_offsets.(id) <- !pos;
      match node with
      | Input -> ()
      | Gate (kind, fanins) ->
        Bytes.set kinds id (Char.chr (Gate.code kind));
        Array.iter
          (fun src ->
            fanin_targets.(!pos) <- src;
            incr pos)
          fanins)
    nodes;
  fanin_offsets.(n) <- !pos;
  unsafe_make_csr ~name ~num_inputs ~kinds ~fanin_offsets ~fanin_targets
    ~node_names:(Array.copy node_names) ~outputs:(Array.copy outputs)

let name c = c.name
let num_nodes c = Bytes.length c.kinds
let num_inputs c = c.num_inputs
let num_gates c = Bytes.length c.kinds - c.num_inputs
let num_outputs c = Array.length c.outputs
let kind_code c id = Char.code (Bytes.unsafe_get c.kinds id)

let node c id =
  let code = kind_code c id in
  if code = input_code then Input
  else
    let s = c.fanin_offsets.(id) in
    Gate (Gate.of_code code, Array.sub c.fanin_targets s (c.fanin_offsets.(id + 1) - s))

let node_name c id = c.node_names.(id)
let node_id_of_name c nm = Hashtbl.find_opt (Lazy.force c.name_index) nm
let outputs c = Array.copy c.outputs
let inputs c = Array.init c.num_inputs Fun.id

let fanins c id =
  let s = c.fanin_offsets.(id) in
  Array.sub c.fanin_targets s (c.fanin_offsets.(id + 1) - s)

let fanouts c id =
  let s = c.fanout_offsets.(id) in
  Array.sub c.fanout_targets s (c.fanout_offsets.(id + 1) - s)

let fanout_count c id = c.fanout_offsets.(id + 1) - c.fanout_offsets.(id)
let fanin_count c id = c.fanin_offsets.(id + 1) - c.fanin_offsets.(id)

let iter_fanins c id f =
  for k = c.fanin_offsets.(id) to c.fanin_offsets.(id + 1) - 1 do
    f (Array.unsafe_get c.fanin_targets k)
  done

let iter_fanouts c id f =
  for k = c.fanout_offsets.(id) to c.fanout_offsets.(id + 1) - 1 do
    f (Array.unsafe_get c.fanout_targets k)
  done

let is_gate c id = id >= c.num_inputs
let is_input c id = id < c.num_inputs
let is_output c id = c.output_set.(id)

let gate_kind c id =
  let code = kind_code c id in
  if code = input_code then
    invalid_arg "Circuit.gate_kind: node is a primary input"
  else Gate.of_code code

let level c id = c.levels.(id)
let depth c = Array.length c.level_offsets - 1

let node_of_gate c g = c.num_inputs + g
let gate_of_node c id = id - c.num_inputs

module Csr = struct
  let kinds c = c.kinds
  let fanin_offsets c = c.fanin_offsets
  let fanin_targets c = c.fanin_targets
  let fanout_offsets c = c.fanout_offsets
  let fanout_targets c = c.fanout_targets
  let levels c = c.levels
  let level_order c = c.level_order
  let level_offsets c = c.level_offsets
  let outputs c = c.outputs
end

type stats = {
  s_inputs : int;
  s_outputs : int;
  s_gates : int;
  s_depth : int;
  s_kind_counts : (Gate.kind * int) list;
}

let stats c =
  let counts = Array.make 8 0 in
  for id = c.num_inputs to num_nodes c - 1 do
    let code = kind_code c id in
    counts.(code) <- counts.(code) + 1
  done;
  let kind_counts =
    List.filter_map
      (fun k ->
        let v = counts.(Gate.code k) in
        if v > 0 then Some (k, v) else None)
      Gate.all_kinds
  in
  {
    s_inputs = num_inputs c;
    s_outputs = num_outputs c;
    s_gates = num_gates c;
    s_depth = depth c;
    s_kind_counts = kind_counts;
  }

let pp_stats fmt s =
  Format.fprintf fmt "inputs=%d outputs=%d gates=%d depth=%d [%a]" s.s_inputs
    s.s_outputs s.s_gates s.s_depth
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
       (fun fmt (k, n) -> Format.fprintf fmt "%a:%d" Gate.pp k n))
    s.s_kind_counts

let validate c =
  let n = num_nodes c in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_node id =
    let code = kind_code c id in
    if code = input_code then begin
      if id >= c.num_inputs then err "gate slot %d holds an Input node" id
      else if fanin_count c id <> 0 then err "input %d has fanins" id
      else Ok ()
    end
    else if code > 7 then err "node %d: bad kind code %d" id code
    else if id < c.num_inputs then err "input slot %d holds a gate" id
    else begin
      let kind = Gate.of_code code in
      let nf = fanin_count c id in
      if not (Gate.arity_ok kind nf) then
        err "node %d: %s with %d fanins" id (Gate.to_string kind) nf
      else begin
        let bad = ref false in
        iter_fanins c id (fun src -> if src < 0 || src >= id then bad := true);
        if !bad then err "node %d: fanin out of topological order" id
        else Ok ()
      end
    end
  in
  let rec check_all id =
    if id >= n then Ok ()
    else begin
      match check_node id with Ok () -> check_all (id + 1) | Error e -> Error e
    end
  in
  let check_offsets offsets label =
    if Array.length offsets <> n + 1 then err "%s offsets length drifted" label
    else if offsets.(0) <> 0 then err "%s offsets do not start at 0" label
    else begin
      let monotone = ref true in
      for id = 0 to n - 1 do
        if offsets.(id + 1) < offsets.(id) then monotone := false
      done;
      if not !monotone then err "%s offsets not monotone" label else Ok ()
    end
  in
  (* The levelization against a recomputation from the fanins: inputs
     at 0, every gate one above its deepest fanin, and the level-major
     order a partition of the gates by level with ascending ids per
     level — strictly ascending ids inside a level and the level test
     together rule out a gate listed twice.  Both scans run downward so
     the error kept is the lowest node or slot. *)
  let check_levels () =
    let ni = c.num_inputs in
    let lo = c.level_offsets and order = c.level_order in
    let depth = depth c in
    let monotone = ref true in
    for l = 1 to depth do
      if lo.(l) < lo.(l - 1) then monotone := false
    done;
    if lo.(0) <> 0 || lo.(depth) <> n - ni || not !monotone then
      err "level offsets do not partition the gates"
    else begin
      let bad = ref (Ok ()) in
      for id = n - 1 downto 0 do
        let deepest = ref (-1) in
        if id >= ni then
          iter_fanins c id (fun src ->
              deepest := Stdlib.max !deepest c.levels.(src));
        if c.levels.(id) <> !deepest + 1 then
          bad :=
            err "node %d at level %d, expected %d" id c.levels.(id)
              (!deepest + 1)
      done;
      for l = depth downto 1 do
        for k = lo.(l) - 1 downto lo.(l - 1) do
          let id = order.(k) in
          if id < ni || id >= n || c.levels.(id) <> l then
            bad := err "level order slot %d: node %d not a level-%d gate" k id l
          else if k > lo.(l - 1) && order.(k - 1) >= id then
            bad := err "level %d: ids not ascending at slot %d" l k
        done
      done;
      !bad
    end
  in
  (* The fanout CSR against a rebuild from the fanins: the inverse
     adjacency, each segment ascending by sink with repeated edges
     kept.  Runs once the fanins are known to be in range. *)
  let check_fanouts () =
    let offsets, targets = build_fanouts_csr n c.fanin_offsets c.fanin_targets in
    if Array.length c.fanout_targets <> Array.length targets then
      err "fanout targets length drifted"
    else begin
      let same id =
        let e = offsets.(id + 1) in
        let rec from k = k >= e || (c.fanout_targets.(k) = targets.(k) && from (k + 1)) in
        c.fanout_offsets.(id) = offsets.(id) && c.fanout_offsets.(id + 1) = e
        && from offsets.(id)
      in
      let rec first id =
        if id >= n then Ok ()
        else if same id then first (id + 1)
        else err "node %d: fanouts are not the ascending inverse of the fanins" id
      in
      first 0
    end
  in
  match check_offsets c.fanin_offsets "fanin" with
  | Error e -> Error e
  | Ok () -> begin
    match check_offsets c.fanout_offsets "fanout" with
    | Error e -> Error e
    | Ok () -> begin
      match check_all 0 with
      | Error e -> Error e
      | Ok () ->
        if Array.exists (fun o -> o < 0 || o >= n) c.outputs then
          err "output id out of range"
        else if Array.length c.outputs = 0 then err "circuit has no outputs"
        else begin
          match check_fanouts () with
          | Error e -> Error e
          | Ok () -> check_levels ()
        end
    end
  end
