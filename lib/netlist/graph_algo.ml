(* The undirected gate graph in the same CSR shape as the circuit:
   flat offsets + targets, one segment of sorted unique neighbours per
   gate.  A million-gate graph is two int arrays, not a million boxed
   neighbour arrays.  [targets] may run past [offsets.(n)]: segments
   are read only through [offsets]. *)
type undirected = { offsets : int array; targets : int array }

(* One pass in gate order, each segment written in place.  A gate's
   fanins all have smaller ids and its fanouts larger ones, so the
   segment is its sorted unique gate fanins followed by its unique gate
   fanouts: the fanins go in by insertion (degrees are small), and the
   fanout CSR is already ascending, so only adjacent repeats (a gate
   read twice by one sink) are dropped.  Every gate-to-gate edge lands
   in two segments at most, which bounds [targets]; it is kept at that
   bound rather than copied down to the deduplicated length. *)
let undirected_of_circuit c =
  let ng = Circuit.num_gates c in
  let ni = Circuit.num_inputs c in
  let fi_offsets = Circuit.Csr.fanin_offsets c in
  let fi_targets = Circuit.Csr.fanin_targets c in
  let fo_offsets = Circuit.Csr.fanout_offsets c in
  let fo_targets = Circuit.Csr.fanout_targets c in
  let offsets = Array.make (ng + 1) 0 in
  let gate_edges = ref 0 in
  Array.iter (fun src -> if src >= ni then incr gate_edges) fi_targets;
  let targets = Array.make (2 * !gate_edges) 0 in
  let pos = ref 0 in
  for g = 0 to ng - 1 do
    let id = g + ni in
    let s = !pos in
    offsets.(g) <- s;
    for k = fi_offsets.(id) to fi_offsets.(id + 1) - 1 do
      let src = fi_targets.(k) in
      if src >= ni then begin
        let v = src - ni in
        let j = ref (!pos - 1) in
        while !j >= s && targets.(!j) > v do
          decr j
        done;
        if !j < s || targets.(!j) <> v then begin
          for i = !pos downto !j + 2 do
            targets.(i) <- targets.(i - 1)
          done;
          targets.(!j + 1) <- v;
          incr pos
        end
      end
    done;
    let last = ref (-1) in
    for k = fo_offsets.(id) to fo_offsets.(id + 1) - 1 do
      let dst = fo_targets.(k) in
      if dst <> !last then begin
        targets.(!pos) <- dst - ni;
        incr pos;
        last := dst
      end
    done
  done;
  offsets.(ng) <- !pos;
  { offsets; targets }

let num_gates u = Array.length u.offsets - 1

let neighbours u g =
  let s = u.offsets.(g) in
  Array.sub u.targets s (u.offsets.(g + 1) - s)

let iter_neighbours u g f =
  for k = u.offsets.(g) to u.offsets.(g + 1) - 1 do
    f (Array.unsafe_get u.targets k)
  done

let exists_neighbour u g f =
  let e = u.offsets.(g + 1) in
  let rec scan k = k < e && (f (Array.unsafe_get u.targets k) || scan (k + 1)) in
  scan u.offsets.(g)

(* Reusable truncated-BFS workspace.  Visited marks are epoch stamps,
   so starting a new traversal is O(1) — no clearing pass.  One
   workspace per owner: traversals from two domains (or two partitions)
   must not share one. *)
type bfs = {
  stamp : int array; (* stamp.(g) = epoch when g was last discovered *)
  dist : int array; (* BFS distance, valid where stamp.(g) = epoch *)
  queue : int array; (* discovery order *)
  mutable epoch : int;
}

let make_bfs u =
  let n = num_gates u in
  {
    stamp = Array.make n 0;
    dist = Array.make n 0;
    queue = Array.make (Stdlib.max n 1) 0;
    epoch = 0;
  }

(* BFS truncated at [cutoff] intermediate nodes.  The separation of a
   direct neighbour is 0, so BFS distance d corresponds to separation
   d - 1; source separation is 0 as well.  Only nodes whose separation
   would still be below the cutoff are expanded. *)
let bfs_from u b ~cutoff source =
  if Array.length b.stamp <> num_gates u then
    invalid_arg "Graph_algo.bfs_from: workspace sized for another graph";
  b.epoch <- b.epoch + 1;
  let epoch = b.epoch in
  let stamp = b.stamp and dist = b.dist and queue = b.queue in
  let offsets = u.offsets and targets = u.targets in
  stamp.(source) <- epoch;
  dist.(source) <- 0;
  queue.(0) <- source;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let v = Array.unsafe_get queue !head in
    let d = Array.unsafe_get dist v in
    incr head;
    (* a node at BFS distance d+1 has separation d; only expand while
       the next separation would still be below the cutoff *)
    if d < cutoff then
      for k = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
        let w = Array.unsafe_get targets k in
        if Array.unsafe_get stamp w <> epoch then begin
          Array.unsafe_set stamp w epoch;
          Array.unsafe_set dist w (d + 1);
          Array.unsafe_set queue !tail w;
          incr tail
        end
      done
  done

let bfs_separation b ~cutoff g =
  if b.stamp.(g) = b.epoch then begin
    let d = b.dist.(g) in
    if d = 0 then 0 else Stdlib.min cutoff (d - 1)
  end
  else cutoff

(* The same traversal, level-synchronous: the queue segment of one
   distance is expanded before the next begins, so the distance is a
   loop counter rather than a per-gate array, and each finished level
   is handed over as a queue range.  No call sits inside the edge
   loop.  The closing epoch bump leaves the workspace with no
   traversal to read. *)
let bfs_levels u b ~cutoff source f =
  if Array.length b.stamp <> num_gates u then
    invalid_arg "Graph_algo.bfs_levels: workspace sized for another graph";
  b.epoch <- b.epoch + 1;
  let epoch = b.epoch in
  let stamp = b.stamp and queue = b.queue in
  let offsets = u.offsets and targets = u.targets in
  stamp.(source) <- epoch;
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 and d = ref 0 in
  while !head < !tail && !d < cutoff do
    let level_start = !tail in
    while !head < level_start do
      let v = Array.unsafe_get queue !head in
      incr head;
      for k = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
        let w = Array.unsafe_get targets k in
        if Array.unsafe_get stamp w <> epoch then begin
          Array.unsafe_set stamp w epoch;
          Array.unsafe_set queue !tail w;
          incr tail
        end
      done
    done;
    incr d;
    f queue level_start !tail !d
  done;
  b.epoch <- b.epoch + 1

(* Multi-source truncated BFS (Then et al., "The More the Merrier",
   VLDB 2014): up to [multi_width] traversals run as one, source [i]
   owning bit [i] of a two-word mask — bits 0..62 in the low word,
   63..125 in the high one.  Per gate, [seen] holds the bits of every
   source that reached it, [frontier] the bits that reached it at the
   current level and [next] those reaching it at the next one; a level
   ORs each frontier gate's bits into its neighbours.  The two words of
   a gate sit side by side ([2g], [2g + 1]), so a gate's mask is read
   in one place, not from two arrays.  A gate is listed once per level it receives new bits
   on, so a pass costs the union of the balls, not their sum.
   [touched] lists every gate with a nonzero [seen]; the next traversal
   clears exactly those, [next] included: a level drains every [next]
   it sets, but a callback that raises mid-level leaves the rest set.
   [frontier] needs no clearing: a gate's entry is written whenever it
   joins a level list, and read only while it is on one. *)
let multi_width = 2 * Sys.int_size

type multi_bfs = {
  seen : int array; (* two words per gate *)
  frontier : int array; (* two words per gate *)
  next : int array; (* two words per gate *)
  level : int array; (* gates with frontier bits *)
  next_level : int array; (* gates with next bits *)
  touched : int array;
  mutable n_touched : int;
}

let make_multi_bfs u =
  let n = num_gates u in
  {
    seen = Array.make (2 * n) 0;
    frontier = Array.make (2 * n) 0;
    next = Array.make (2 * n) 0;
    level = Array.make n 0;
    next_level = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0;
  }

let[@inline] popcount x =
  (* SWAR over the 63 bits of a native int: the byte sums fit in the
     top 7 bits, so the product's bit 63 is never needed *)
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let multi_bfs_from u b ~cutoff sources ~pos ~len f =
  if Array.length b.level <> num_gates u then
    invalid_arg "Graph_algo.multi_bfs_from: workspace sized for another graph";
  if len < 0 || len > multi_width || pos < 0 || pos > Array.length sources - len
  then invalid_arg "Graph_algo.multi_bfs_from: bad source range";
  let seen = b.seen and frontier = b.frontier and next = b.next in
  let touched = b.touched in
  for i = 0 to b.n_touched - 1 do
    let x = 2 * Array.unsafe_get touched i in
    Array.unsafe_set seen x 0;
    Array.unsafe_set seen (x + 1) 0;
    Array.unsafe_set next x 0;
    Array.unsafe_set next (x + 1) 0
  done;
  b.n_touched <- 0;
  let offsets = u.offsets and targets = u.targets in
  let nt = ref 0 in
  let level = ref b.level and next_level = ref b.next_level in
  let width = ref 0 in
  for i = 0 to len - 1 do
    let g = sources.(pos + i) in
    let x = 2 * g in
    if seen.(x) lor seen.(x + 1) = 0 then begin
      touched.(!nt) <- g;
      incr nt;
      !level.(!width) <- g;
      incr width
    end;
    if i < Sys.int_size then seen.(x) <- seen.(x) lor (1 lsl i)
    else seen.(x + 1) <- seen.(x + 1) lor (1 lsl (i - Sys.int_size))
  done;
  b.n_touched <- !nt;
  for i = 0 to !width - 1 do
    let g = !level.(i) in
    let x = 2 * g in
    frontier.(x) <- seen.(x);
    frontier.(x + 1) <- seen.(x + 1);
    f g 0 seen.(x) seen.(x + 1)
  done;
  let d = ref 0 in
  while !width > 0 && !d < cutoff do
    let cur = !level and nxt = !next_level in
    let reached = ref 0 in
    for i = 0 to !width - 1 do
      let v = Array.unsafe_get cur i in
      let lo = Array.unsafe_get frontier (2 * v)
      and hi = Array.unsafe_get frontier ((2 * v) + 1) in
      for k = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
        let w = Array.unsafe_get targets k in
        let x = 2 * w in
        let slo = Array.unsafe_get seen x and shi = Array.unsafe_get seen (x + 1) in
        let flo = lo land lnot slo and fhi = hi land lnot shi in
        if flo lor fhi <> 0 then begin
          if slo lor shi = 0 then begin
            Array.unsafe_set touched !nt w;
            incr nt
          end;
          let nlo = Array.unsafe_get next x and nhi = Array.unsafe_get next (x + 1) in
          if nlo lor nhi = 0 then begin
            Array.unsafe_set nxt !reached w;
            incr reached
          end;
          Array.unsafe_set seen x (slo lor flo);
          Array.unsafe_set seen (x + 1) (shi lor fhi);
          Array.unsafe_set next x (nlo lor flo);
          Array.unsafe_set next (x + 1) (nhi lor fhi)
        end
      done
    done;
    b.n_touched <- !nt;
    incr d;
    for i = 0 to !reached - 1 do
      let w = Array.unsafe_get nxt i in
      let x = 2 * w in
      let lo = Array.unsafe_get next x and hi = Array.unsafe_get next (x + 1) in
      Array.unsafe_set next x 0;
      Array.unsafe_set next (x + 1) 0;
      Array.unsafe_set frontier x lo;
      Array.unsafe_set frontier (x + 1) hi;
      f w !d lo hi
    done;
    level := nxt;
    next_level := cur;
    width := !reached
  done

let multi_bfs_sweep u b ~cutoff ~pass f =
  let n = num_gates u in
  let sources = Array.make multi_width 0 in
  let base = ref 0 in
  while !base < n do
    let len = Stdlib.min multi_width (n - !base) in
    for i = 0 to len - 1 do
      sources.(i) <- !base + i
    done;
    pass !base len;
    multi_bfs_from u b ~cutoff sources ~pos:0 ~len f;
    base := !base + len
  done

let module_separation u ~cutoff gates =
  let k = Array.length gates in
  if k < 2 then 0
  else begin
    let b = make_bfs u in
    let total = ref 0 in
    (* one truncated BFS per gate; count each unordered pair once *)
    Array.iteri
      (fun i g ->
        bfs_from u b ~cutoff g;
        Array.iteri
          (fun j h ->
            if j > i then total := !total + bfs_separation b ~cutoff h)
          gates)
      gates;
    !total
  end

let reachable_from c seeds =
  let n = Circuit.num_nodes c in
  let seen = Array.make n false in
  let q = Queue.create () in
  Array.iter
    (fun id ->
      if not seen.(id) then begin
        seen.(id) <- true;
        Queue.add id q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Circuit.iter_fanouts c v (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
  done;
  seen
