module Circuit = Iddq_netlist.Circuit
module Graph_algo = Iddq_netlist.Graph_algo
module Rng = Iddq_util.Rng

type t = {
  circuit : Circuit.t;
  positions : (float * float) array; (* per gate index *)
  width : float;
  height : float;
}

(* One Fiduccia-Mattheyses-flavoured refinement pass over a bipartition
   of [gates] (side.(i) for gates.(i)): repeatedly move the best-gain
   unlocked gate while keeping the sides within one gate of balance.
   Adjacency is looked up through [local], mapping global gate index
   to position in [gates] (or -1). *)
let fm_pass u gates local side =
  let n = Array.length gates in
  let count_side s =
    let c = ref 0 in
    Array.iter (fun x -> if x = s then incr c) side;
    !c
  in
  let left = ref (count_side 0) in
  let right = ref (n - !left) in
  let locked = Array.make n false in
  let gain i =
    (* edges to the other side minus edges to the own side *)
    let own = side.(i) in
    let g = ref 0 in
    Graph_algo.iter_neighbours u gates.(i) (fun h ->
        let j = local.(h) in
        if j >= 0 then if side.(j) = own then decr g else incr g);
    !g
  in
  let moved = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* best unlocked move that keeps balance *)
    let best = ref (-1) and best_gain = ref min_int in
    for i = 0 to n - 1 do
      if not locked.(i) then begin
        let balance_ok =
          if side.(i) = 0 then !left - 1 >= (n / 2) - 1
          else !right - 1 >= (n / 2) - 1
        in
        if balance_ok then begin
          let g = gain i in
          if g > !best_gain then begin
            best_gain := g;
            best := i
          end
        end
      end
    done;
    if !best < 0 || !best_gain <= 0 then continue_ := false
    else begin
      let i = !best in
      if side.(i) = 0 then begin
        side.(i) <- 1;
        decr left;
        incr right
      end
      else begin
        side.(i) <- 0;
        incr left;
        decr right
      end;
      locked.(i) <- true;
      incr moved
    end
  done;
  !moved

(* Split [gates] into two balanced halves with a small cut: seed the
   first half by BFS growth from a random gate (keeps it connected),
   then refine with FM passes. *)
let bisect u rng gates local side_buffer =
  let n = Array.length gates in
  Array.iteri (fun i g -> local.(g) <- i) gates;
  let side = side_buffer in
  Array.fill side 0 n 1;
  let half = n / 2 in
  (* BFS growth *)
  let taken = ref 0 in
  let q = Queue.create () in
  let seen = Array.make n false in
  let start = Rng.int rng n in
  Queue.add start q;
  seen.(start) <- true;
  while !taken < half && not (Queue.is_empty q) do
    let i = Queue.pop q in
    side.(i) <- 0;
    incr taken;
    Graph_algo.iter_neighbours u gates.(i) (fun h ->
        let j = local.(h) in
        if j >= 0 && not seen.(j) then begin
          seen.(j) <- true;
          Queue.add j q
        end)
  done;
  (* disconnected remainder: top up arbitrarily *)
  let i = ref 0 in
  while !taken < half && !i < n do
    if side.(!i) = 1 then begin
      side.(!i) <- 0;
      incr taken
    end;
    incr i
  done;
  for _ = 1 to 2 do
    ignore (fm_pass u gates local side)
  done;
  let a = ref [] and b = ref [] in
  for i = n - 1 downto 0 do
    if side.(i) = 0 then a := gates.(i) :: !a else b := gates.(i) :: !b
  done;
  (* reset the scratch mapping *)
  Array.iter (fun g -> local.(g) <- -1) gates;
  (Array.of_list !a, Array.of_list !b)

let place ?(seed = 1) circuit =
  let ng = Circuit.num_gates circuit in
  let u = Graph_algo.undirected_of_circuit circuit in
  let rng = Rng.create seed in
  let positions = Array.make (Stdlib.max 1 ng) (0.0, 0.0) in
  let local = Array.make ng (-1) in
  let side_buffer = Array.make ng 0 in
  (* region = (x0, y0, x1, y1); alternate the split axis with depth *)
  let rec layout gates (x0, y0, x1, y1) vertical =
    let n = Array.length gates in
    if n = 0 then ()
    else if n <= 4 then begin
      (* leaf: a little row-major grid *)
      let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
      Array.iteri
        (fun i g ->
          let cx = i mod cols and cy = i / cols in
          let fx = (float_of_int cx +. 0.5) /. float_of_int cols in
          let rows = ((n - 1) / cols) + 1 in
          let fy = (float_of_int cy +. 0.5) /. float_of_int rows in
          positions.(g) <- (x0 +. (fx *. (x1 -. x0)), y0 +. (fy *. (y1 -. y0))))
        gates
    end
    else begin
      let a, b = bisect u rng gates local (Array.sub side_buffer 0 n) in
      let wa = float_of_int (Array.length a) /. float_of_int n in
      if vertical then begin
        let xm = x0 +. (wa *. (x1 -. x0)) in
        layout a (x0, y0, xm, y1) (not vertical);
        layout b (xm, y0, x1, y1) (not vertical)
      end
      else begin
        let ym = y0 +. (wa *. (y1 -. y0)) in
        layout a (x0, y0, x1, ym) (not vertical);
        layout b (x0, ym, x1, y1) (not vertical)
      end
    end
  in
  let side = Float.ceil (sqrt (float_of_int (Stdlib.max 1 ng))) in
  layout (Array.init ng Fun.id) (0.0, 0.0, side, side) true;
  { circuit; positions; width = side; height = side }

let random ~rng circuit =
  let ng = Circuit.num_gates circuit in
  let side_cells = int_of_float (Float.ceil (sqrt (float_of_int (Stdlib.max 1 ng)))) in
  let slots = Array.init (side_cells * side_cells) Fun.id in
  Rng.shuffle_in_place rng slots;
  let positions =
    Array.init (Stdlib.max 1 ng) (fun g ->
        let s = slots.(g) in
        ( (float_of_int (s mod side_cells)) +. 0.5,
          (float_of_int (s / side_cells)) +. 0.5 ))
  in
  let side = float_of_int side_cells in
  { circuit; positions; width = side; height = side }

let position t g = t.positions.(g)
let dimensions t = (t.width, t.height)

let net_hpwl t g =
  let c = t.circuit in
  let id = Circuit.node_of_gate c g in
  if Circuit.fanout_count c id = 0 then 0.0
  else begin
    let x, y = t.positions.(g) in
    let x0 = ref x and x1 = ref x and y0 = ref y and y1 = ref y in
    (* every fanout of a node is a gate *)
    Circuit.iter_fanouts c id (fun dst ->
        let hx, hy = t.positions.(Circuit.gate_of_node c dst) in
        if hx < !x0 then x0 := hx;
        if hx > !x1 then x1 := hx;
        if hy < !y0 then y0 := hy;
        if hy > !y1 then y1 := hy);
    !x1 -. !x0 +. (!y1 -. !y0)
  end

let hpwl t =
  let total = ref 0.0 in
  for g = 0 to Circuit.num_gates t.circuit - 1 do
    total := !total +. net_hpwl t g
  done;
  !total

let module_bbox t gates =
  if Array.length gates = 0 then invalid_arg "Placement.module_bbox: empty";
  let x, y = t.positions.(gates.(0)) in
  let x0 = ref x and x1 = ref x and y0 = ref y and y1 = ref y in
  Array.iter
    (fun g ->
      let gx, gy = t.positions.(g) in
      if gx < !x0 then x0 := gx;
      if gx > !x1 then x1 := gx;
      if gy < !y0 then y0 := gy;
      if gy > !y1 then y1 := gy)
    gates;
  (!x0, !y0, !x1, !y1)

let module_rail_length t gates =
  let x0, y0, x1, y1 = module_bbox t gates in
  x1 -. x0 +. (y1 -. y0)

let centroid t gates =
  let sx = ref 0.0 and sy = ref 0.0 in
  Array.iter
    (fun g ->
      let x, y = t.positions.(g) in
      sx := !sx +. x;
      sy := !sy +. y)
    gates;
  let n = float_of_int (Array.length gates) in
  (!sx /. n, !sy /. n)

let sensor_chain_length t modules =
  match List.filter (fun m -> Array.length m > 0) modules with
  | [] | [ _ ] -> 0.0
  | ms ->
    let centers = Array.of_list (List.map (centroid t) ms) in
    let n = Array.length centers in
    let visited = Array.make n false in
    let dist (ax, ay) (bx, by) = Float.abs (ax -. bx) +. Float.abs (ay -. by) in
    (* nearest-neighbour chain from the first module *)
    let total = ref 0.0 in
    let current = ref 0 in
    visited.(0) <- true;
    for _ = 2 to n do
      let best = ref (-1) and best_d = ref infinity in
      for j = 0 to n - 1 do
        if (not visited.(j)) && dist centers.(!current) centers.(j) < !best_d
        then begin
          best := j;
          best_d := dist centers.(!current) centers.(j)
        end
      done;
      total := !total +. !best_d;
      visited.(!best) <- true;
      current := !best
    done;
    !total
