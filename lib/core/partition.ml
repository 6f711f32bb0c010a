module Charac = Iddq_analysis.Charac
module Switching = Iddq_analysis.Switching
module Graph_algo = Iddq_netlist.Graph_algo
module Technology = Iddq_celllib.Technology
module Sensor = Iddq_bic.Sensor

type module_state = {
  mutable gate_count : int;
  mutable m_leakage : float;
  mutable m_rail_cap : float;
  mutable current_profile : float array; (* slot -> summed peak current *)
  mutable count_profile : int array; (* slot -> switching gate count *)
  mutable sep_total : int;
  mutable live : bool;
}

type t = {
  ch : Charac.t;
  assignment : int array;
  mutable mods : module_state array;
  mutable live_count : int;
}

(* One batched-move workspace per domain, replaced only when a circuit
   of another size comes along: the multi-source BFS plus the per-module
   tally a batch's reports add into.  Partitions moved on one domain
   (ES offspring built on a pool, say) share it instead of each holding
   their own, and the S(M) sweep of [create_many] borrows its BFS.
   Sharing is safe because a move or a sweep is done with the workspace
   before the next one starts, and no two threads run on one domain
   here.  A partition has at most one module per gate, so [n + 1]
   tally slots cover every module id and the batch's phantom one. *)
type move_workspace = {
  bfs : Graph_algo.multi_bfs;
  tally : int array; (* per module id, then the phantom id *)
}

let move_workspace : (int * move_workspace) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let workspace_of ch =
  let u = Charac.undirected ch in
  let n = Graph_algo.num_gates u in
  match Domain.DLS.get move_workspace with
  | Some (size, s) when size = n -> s
  | _ ->
    let s = { bfs = Graph_algo.make_multi_bfs u; tally = Array.make (n + 1) 0 } in
    Domain.DLS.set move_workspace (Some (n, s));
    s

let empty_module depth =
  {
    gate_count = 0;
    m_leakage = 0.0;
    m_rail_cap = 0.0;
    current_profile = Array.make (depth + 1) 0.0;
    count_profile = Array.make (depth + 1) 0;
    sep_total = 0;
    live = false;
  }

let copy_module m =
  {
    gate_count = m.gate_count;
    m_leakage = m.m_leakage;
    m_rail_cap = m.m_rail_cap;
    current_profile = Array.copy m.current_profile;
    count_profile = Array.copy m.count_profile;
    sep_total = m.sep_total;
    live = m.live;
  }

let add_gate_aggregates ch st g =
  st.gate_count <- st.gate_count + 1;
  st.m_leakage <- st.m_leakage +. Charac.leakage ch g;
  st.m_rail_cap <- st.m_rail_cap +. Charac.rail_capacitance ch g;
  let ipk = Charac.peak_current ch g in
  Charac.iter_switch_slots ch g (fun slot ->
      st.current_profile.(slot) <- st.current_profile.(slot) +. ipk;
      st.count_profile.(slot) <- st.count_profile.(slot) + 1)

let remove_gate_aggregates ch st g =
  st.gate_count <- st.gate_count - 1;
  st.m_leakage <- st.m_leakage -. Charac.leakage ch g;
  st.m_rail_cap <- st.m_rail_cap -. Charac.rail_capacitance ch g;
  let ipk = Charac.peak_current ch g in
  Charac.iter_switch_slots ch g (fun slot ->
      st.current_profile.(slot) <- st.current_profile.(slot) -. ipk;
      st.count_profile.(slot) <- st.count_profile.(slot) - 1)

(* Any pair beyond the BFS horizon sits at exactly [cutoff], so a
   module's S(M) is [cutoff] times its pair count less its in-horizon
   closeness

     A(M) = sum over in-horizon pairs g < h of M of (cutoff - sep g h).

   [near_totals] computes A(M) from scratch for every module of several
   assignments in one sweep of 126-source passes
   ({!Graph_algo.multi_bfs_sweep}): the traversals depend only on the
   graph, so one sweep serves every assignment.

   During a pass, [mask] holds per (assignment, module) the two-word
   mask of the pass's sources in that module.  A gate [h] reached at
   distance [d >= 1] by the sources in [lo], [hi] adds [cutoff - (d -
   1)] to A of its module once per source of that module with a
   smaller id — the pair's other end reaches it too, and only the
   smaller id counts.  The sums are integers, so the order of the
   passes cannot change them. *)
let near_totals ch assignments ks =
  let u = Charac.undirected ch in
  let cutoff = Charac.separation_cutoff ch in
  let n = Charac.num_gates ch in
  let a = Array.length assignments in
  let word = Sys.int_size in
  (* one slot per (assignment, module): assignment [j]'s from off.(j) *)
  let off = Array.make (a + 1) 0 in
  Array.iteri (fun j k -> off.(j + 1) <- off.(j) + k) ks;
  (* gate-major slots: the [a] slots of one gate sit side by side *)
  let slot = Array.make (n * a) 0 in
  Array.iteri
    (fun j asg ->
      Array.iteri (fun g m -> slot.((g * a) + j) <- off.(j) + m) asg)
    assignments;
  (* slot [s]'s mask in words [2s] (sources 0..62) and [2s + 1] *)
  let near = Array.make off.(a) 0 and mask = Array.make (2 * off.(a)) 0 in
  let first = ref 0 and last = ref 0 in
  let pass base len =
    for g = !first to !last - 1 do
      for j = 0 to a - 1 do
        let x = 2 * slot.((g * a) + j) in
        mask.(x) <- 0;
        mask.(x + 1) <- 0
      done
    done;
    first := base;
    last := base + len;
    for g = base to base + len - 1 do
      let i = g - base in
      let high = if i < word then 0 else 1 in
      let bit = 1 lsl (i - (high * word)) in
      for j = 0 to a - 1 do
        let x = (2 * slot.((g * a) + j)) + high in
        mask.(x) <- mask.(x) lor bit
      done
    done
  in
  let report h d lo hi =
    if d > 0 && h > !first then begin
      (* the sources with ids below [h]: all of them past the pass *)
      let i = h - !first in
      let below_lo =
        if h >= !last || i >= word then lo else lo land ((1 lsl i) - 1)
      and below_hi =
        if h >= !last then hi
        else if i < word then 0
        else hi land ((1 lsl (i - word)) - 1)
      in
      if below_lo lor below_hi <> 0 then begin
        let w = cutoff - d + 1 and base = h * a in
        for j = 0 to a - 1 do
          let s = Array.unsafe_get slot (base + j) in
          let c =
            Graph_algo.popcount (below_lo land Array.unsafe_get mask (2 * s))
            + Graph_algo.popcount
                (below_hi land Array.unsafe_get mask ((2 * s) + 1))
          in
          if c > 0 then
            Array.unsafe_set near s (Array.unsafe_get near s + (c * w))
        done
      end
    end
  in
  Graph_algo.multi_bfs_sweep u (workspace_of ch).bfs ~cutoff ~pass report;
  Array.mapi (fun j k -> Array.sub near off.(j) k) ks

(* Validates one assignment and builds its modules' aggregates, all but
   S(M). *)
let modules_of ch assignment =
  if Array.length assignment <> Charac.num_gates ch then
    invalid_arg "Partition.create: assignment length mismatch";
  let k =
    Array.fold_left (fun acc m -> Stdlib.max acc (m + 1)) 0 assignment
  in
  if k = 0 then invalid_arg "Partition.create: no modules";
  Array.iter
    (fun m ->
      if m < 0 || m >= k then invalid_arg "Partition.create: bad module id")
    assignment;
  let depth = Charac.depth ch in
  let mods = Array.init k (fun _ -> empty_module depth) in
  Array.iteri
    (fun g m ->
      mods.(m).live <- true;
      add_gate_aggregates ch mods.(m) g)
    assignment;
  if Array.exists (fun st -> not st.live) mods then
    invalid_arg "Partition.create: module ids must be dense (no empty id)";
  mods

(* The partition of validated [mods], each module's S(M) from its
   A(M) [near.(m)]. *)
let of_near ch assignment mods ~near =
  if Array.length near <> Array.length mods then
    invalid_arg "Partition.create_with_near: one sum per module";
  let cutoff = Charac.separation_cutoff ch in
  Array.iteri
    (fun m st ->
      let k = st.gate_count in
      st.sep_total <- (cutoff * k * (k - 1) / 2) - near.(m))
    mods;
  { ch; assignment; mods; live_count = Array.length mods }

let create_many ch ~assignments =
  let assignments = Array.of_list (List.map Array.copy assignments) in
  let mods = Array.map (modules_of ch) assignments in
  let near = near_totals ch assignments (Array.map Array.length mods) in
  Array.to_list
    (Array.mapi
       (fun j assignment -> of_near ch assignment mods.(j) ~near:near.(j))
       assignments)

let create ch ~assignment =
  match create_many ch ~assignments:[ assignment ] with
  | [ t ] -> t
  | _ -> assert false

let create_with_near ch ~assignment ~near =
  let assignment = Array.copy assignment in
  of_near ch assignment (modules_of ch assignment) ~near

let copy t =
  {
    ch = t.ch;
    assignment = Array.copy t.assignment;
    mods = Array.map copy_module t.mods;
    live_count = t.live_count;
  }

let charac t = t.ch
let num_gates t = Array.length t.assignment
let num_modules t = t.live_count

let module_ids t =
  let ids = ref [] in
  for m = Array.length t.mods - 1 downto 0 do
    if t.mods.(m).live then ids := m :: !ids
  done;
  !ids

let module_of_gate t g = t.assignment.(g)
let assignment t = Array.copy t.assignment
let size t m = if t.mods.(m).live then t.mods.(m).gate_count else 0

let members t m =
  let out = ref [] in
  for g = Array.length t.assignment - 1 downto 0 do
    if t.assignment.(g) = m then out := g :: !out
  done;
  Array.of_list !out

(* Moving a set [S] of gates from module [A] to module [B] changes

     S(A) by -(cross(S, A \ S) + S(S))     S(B) by +(cross(S, B) + S(S))

   where cross(X, Y) sums the separations of the pairs between X and Y.
   Every sum uses the out-of-horizon identity of [near_totals]:
   partners beyond the horizon sit at exactly [cutoff], so each sum is
   [cutoff] times its pair count less a correction over the pairs the
   BFS reached.  One multi-source pass serves up to [multi_width] gates
   of [S]; a gate reached at distance [d] by the sources in [lo], [hi]
   corrects by [popcount * (cutoff - (d - 1))].  While the passes run,
   the gates of [S] sit in a phantom module, the id one past the last,
   so every report adds its correction to the tally of the reached
   gate's module with no test of which module that is: the tallies of
   [A] and [B] are the corrections of cross(S, A \ S) and cross(S, B),
   and the phantom's, less the [cutoff + 1] each source adds for
   itself at distance 0, that of S(S), whose pairs are reached from
   both ends, hence the halving.  The result is the integer sequential
   moves would reach, and the float aggregates are updated gate by gate
   in batch order, as sequential moves do. *)
let move_gates t gates ~target =
  let k = Array.length gates in
  if k > 0 then begin
    let n = Array.length t.assignment in
    if Array.exists (fun g -> g < 0 || g >= n) gates then
      invalid_arg "Partition.move_gates: gate out of range";
    let src = t.assignment.(gates.(0)) in
    if Array.exists (fun g -> t.assignment.(g) <> src) gates then
      invalid_arg "Partition.move_gates: gates of several modules";
    if target = src then
      invalid_arg "Partition.move_gates: target is the source module";
    if target < 0 || target >= Array.length t.mods || not t.mods.(target).live
    then invalid_arg "Partition.move_gates: target not a live module";
    let assignment = t.assignment in
    let phantom = Array.length t.mods in
    for i = 0 to k - 1 do
      let g = gates.(i) in
      if assignment.(g) = phantom then begin
        (* a duplicate: put the batch back before rejecting it *)
        for j = 0 to i - 1 do
          assignment.(gates.(j)) <- src
        done;
        invalid_arg "Partition.move_gates: duplicate gate"
      end;
      assignment.(g) <- phantom
    done;
    let s = workspace_of t.ch in
    let tally = s.tally in
    Array.fill tally 0 (phantom + 1) 0;
    let u = Charac.undirected t.ch in
    let cutoff = Charac.separation_cutoff t.ch in
    let report h d lo hi =
      let m = Array.unsafe_get assignment h in
      Array.unsafe_set tally m
        (Array.unsafe_get tally m
        + ((Graph_algo.popcount lo + Graph_algo.popcount hi) * (cutoff - d + 1)))
    in
    (* the sums do not depend on which gates share a pass, but the
       cost does: gates close in id order tend to be close in the
       graph, so passes over ascending ids overlap their balls more
       (a third fewer reports on the Table-1 circuits than journal
       order) *)
    let sources =
      if k <= Graph_algo.multi_width then gates
      else begin
        let a = Array.copy gates in
        Array.sort Int.compare a;
        a
      end
    in
    let pos = ref 0 in
    while !pos < k do
      let len = Stdlib.min Graph_algo.multi_width (k - !pos) in
      Graph_algo.multi_bfs_from u s.bfs ~cutoff sources ~pos:!pos ~len report;
      pos := !pos + len
    done;
    let adj_batch = tally.(phantom) - (k * (cutoff + 1)) in
    let src_st = t.mods.(src) and tgt_st = t.mods.(target) in
    let within = ((cutoff * k * (k - 1)) - adj_batch) / 2 in
    let lost = (cutoff * k * (src_st.gate_count - k)) - tally.(src) + within in
    let gained = (cutoff * k * tgt_st.gate_count) - tally.(target) + within in
    Array.iter
      (fun g ->
        remove_gate_aggregates t.ch src_st g;
        add_gate_aggregates t.ch tgt_st g;
        assignment.(g) <- target)
      gates;
    src_st.sep_total <- src_st.sep_total - lost;
    tgt_st.sep_total <- tgt_st.sep_total + gained;
    if src_st.gate_count = 0 then begin
      src_st.live <- false;
      src_st.sep_total <- 0;
      t.live_count <- t.live_count - 1
    end
  end

let move_gate t g target =
  if target <> t.assignment.(g) then move_gates t [| g |] ~target

let boundary_gates t m =
  let u = Charac.undirected t.ch in
  let out = ref [] in
  for g = Array.length t.assignment - 1 downto 0 do
    if
      t.assignment.(g) = m
      && Graph_algo.exists_neighbour u g (fun h -> t.assignment.(h) <> m)
    then out := g :: !out
  done;
  Array.of_list !out

let neighbour_modules ?module_of t g =
  let module_of =
    match module_of with Some f -> f | None -> Array.get t.assignment
  in
  let own = module_of g in
  (* insertion into an ascending list: degrees are small *)
  let rec insert m = function
    | [] -> [ m ]
    | x :: _ as l when m < x -> m :: l
    | x :: rest as l -> if m = x then l else x :: insert m rest
  in
  let found = ref [] in
  Graph_algo.iter_neighbours (Charac.undirected t.ch) g (fun h ->
      let m = module_of h in
      if m <> own then found := insert m !found);
  !found

let leakage t m = t.mods.(m).m_leakage

(* [Stdlib.max]'s comparison in a float loop, which boxes nothing:
   the incremental evaluator sizes a sensor from it on every refresh *)
let max_transient_current t m =
  let profile = t.mods.(m).current_profile in
  let peak = ref 0.0 in
  for slot = 0 to Array.length profile - 1 do
    let x = profile.(slot) in
    if not (!peak >= x) then peak := x
  done;
  !peak

let current_profile t m = Array.copy t.mods.(m).current_profile
let activity t m slot = t.mods.(m).count_profile.(slot)
(* Inlined, so the incremental evaluator's per-gate loop reads the
   float unboxed. *)
let[@inline] transient_at t m slot = t.mods.(m).current_profile.(slot)
let rail_capacitance t m = t.mods.(m).m_rail_cap
let separation_total t m = t.mods.(m).sep_total

let discriminability t m =
  let nd = leakage t m in
  if nd <= 0.0 then infinity
  else (Charac.technology t.ch).Technology.iddq_threshold /. nd

let min_discriminability t =
  List.fold_left
    (fun acc m -> Stdlib.min acc (discriminability t m))
    infinity (module_ids t)

let sensors t =
  List.map
    (fun m ->
      ( m,
        Sensor.size
          ~technology:(Charac.technology t.ch)
          ~peak_current:(max_transient_current t m)
          ~module_rail_capacitance:(rail_capacitance t m) ))
    (module_ids t)

let check_consistent t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let close a b =
    let scale = Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= 1e-9 *. scale
  in
  let rec check = function
    | [] -> Ok ()
    | m :: rest ->
      let gates = members t m in
      if Array.length gates = 0 then err "live module %d is empty" m
      else if size t m <> Array.length gates then
        err "module %d: size %d but %d members" m (size t m)
          (Array.length gates)
      else if not (close (leakage t m) (Switching.leakage t.ch gates)) then
        err "module %d: leakage drifted" m
      else if
        not
          (close (rail_capacitance t m) (Switching.rail_capacitance t.ch gates))
      then err "module %d: rail capacitance drifted" m
      else begin
        let profile = Switching.current_profile t.ch gates in
        let counts = Switching.count_profile t.ch gates in
        let st = t.mods.(m) in
        let profile_ok =
          Array.for_all2 close profile st.current_profile
          && counts = st.count_profile
        in
        if not profile_ok then err "module %d: switching profile drifted" m
        else begin
          let s =
            Graph_algo.module_separation (Charac.undirected t.ch)
              ~cutoff:(Charac.separation_cutoff t.ch)
              gates
          in
          if s <> separation_total t m then
            err "module %d: separation %d expected %d" m (separation_total t m)
              s
          else check rest
        end
      end
  in
  let live = module_ids t in
  if List.length live <> t.live_count then err "live_count drifted"
  else if
    Array.exists
      (fun m -> not (List.mem m live))
      t.assignment
  then err "a gate is assigned to a dead module"
  else check live

let pp fmt t =
  List.iter
    (fun m ->
      Format.fprintf fmt "module %d: %d gates, d=%.2f, imax=%.3e A, S=%d@." m
        (size t m) (discriminability t m)
        (max_transient_current t m)
        (separation_total t m))
    (module_ids t)
