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

(* One BFS workspace per domain for incremental moves, replaced only
   when a circuit of another size comes along: partitions moved on one
   domain (ES offspring built on a pool, say) share it instead of each
   holding their own.  Sharing is safe because a move is done with the
   workspace before the next move starts, and no two threads run on
   one domain here. *)
let move_bfs : (int * Graph_algo.bfs) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let scratch_bfs t =
  let u = Charac.undirected t.ch in
  let n = Graph_algo.num_gates u in
  match Domain.DLS.get move_bfs with
  | Some (size, b) when size = n -> b
  | _ ->
    let b = Graph_algo.make_bfs u in
    Domain.DLS.set move_bfs (Some (n, b));
    b

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

(* Full S(M) from scratch for every module of several assignments in
   one sweep: the truncated BFS from gate [g] depends only on the
   graph, so one traversal per gate serves every assignment.  Any gate
   outside the BFS horizon sits at exactly [cutoff], so the sum over
   partners [h > g] in [g]'s module [m] is

     cutoff * |{h > g : assignment h = m}|
       - sum over *visited* such h of (cutoff - sep h)

   — identical integer arithmetic to summing [sep h] over a dense
   array, but touching only the visited set.  [rem] counts the
   partners still ahead of [g], maintained decrementally. *)
let separation_totals ch assignments ks =
  let u = Charac.undirected ch in
  let cutoff = Charac.separation_cutoff ch in
  let n = Charac.num_gates ch in
  let a = Array.length assignments in
  (* gate-major module ids: the [a] ids of one gate sit side by side *)
  let ids = Array.make (n * a) 0 in
  Array.iteri
    (fun j asg -> Array.iteri (fun g m -> ids.((g * a) + j) <- m) asg)
    assignments;
  let totals = Array.map (fun k -> Array.make k 0) ks in
  let rem = Array.map (fun k -> Array.make k 0) ks in
  Array.iteri
    (fun j asg -> Array.iter (fun m -> rem.(j).(m) <- rem.(j).(m) + 1) asg)
    assignments;
  let own = Array.make a 0 and adjust = Array.make a 0 in
  let b = Graph_algo.make_bfs u in
  for g = 0 to n - 1 do
    for j = 0 to a - 1 do
      let m = ids.((g * a) + j) in
      own.(j) <- m;
      adjust.(j) <- 0;
      rem.(j).(m) <- rem.(j).(m) - 1
    done;
    Graph_algo.bfs_from u b ~cutoff g;
    for i = 1 to Graph_algo.bfs_visited_count b - 1 do
      let h = Graph_algo.bfs_visited b i in
      if h > g then begin
        let near = cutoff - Graph_algo.bfs_visited_separation b i in
        let base = h * a in
        for j = 0 to a - 1 do
          if Array.unsafe_get ids (base + j) = Array.unsafe_get own j then
            Array.unsafe_set adjust j (Array.unsafe_get adjust j + near)
        done
      end
    done;
    for j = 0 to a - 1 do
      let m = own.(j) in
      totals.(j).(m) <- totals.(j).(m) + (cutoff * rem.(j).(m)) - adjust.(j)
    done
  done;
  totals

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

let create_many ch ~assignments =
  let assignments = Array.of_list (List.map Array.copy assignments) in
  let mods = Array.map (modules_of ch) assignments in
  let totals =
    separation_totals ch assignments (Array.map Array.length mods)
  in
  Array.to_list
    (Array.mapi
       (fun j assignment ->
         Array.iteri (fun m s -> mods.(j).(m).sep_total <- s) totals.(j);
         {
           ch;
           assignment;
           mods = mods.(j);
           live_count = Array.length mods.(j);
         })
       assignments)

let create ch ~assignment =
  match create_many ch ~assignments:[ assignment ] with
  | [ t ] -> t
  | _ -> assert false

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

let move_gate t g target =
  let src = t.assignment.(g) in
  if target <> src then begin
    if target < 0 || target >= Array.length t.mods || not t.mods.(target).live
    then invalid_arg "Partition.move_gate: target not a live module";
    let u = Charac.undirected t.ch in
    let cutoff = Charac.separation_cutoff t.ch in
    let b = scratch_bfs t in
    Graph_algo.bfs_from u b ~cutoff g;
    let src_st = t.mods.(src) and tgt_st = t.mods.(target) in
    (* separation deltas against the *current* membership (g still in
       src).  Same out-of-horizon identity as [separation_totals]: the
       cutoff-valued partners contribute through the module sizes, the
       BFS corrects only the visited ones — O(visited), not O(gates). *)
    let lost_adj = ref 0 and gained_adj = ref 0 in
    for i = 0 to Graph_algo.bfs_visited_count b - 1 do
      let h = Graph_algo.bfs_visited b i in
      if h <> g then begin
        let m = t.assignment.(h) in
        if m = src then
          lost_adj := !lost_adj + (cutoff - Graph_algo.bfs_visited_separation b i)
        else if m = target then
          gained_adj :=
            !gained_adj + (cutoff - Graph_algo.bfs_visited_separation b i)
      end
    done;
    let lost = (cutoff * (src_st.gate_count - 1)) - !lost_adj in
    let gained = (cutoff * tgt_st.gate_count) - !gained_adj in
    remove_gate_aggregates t.ch src_st g;
    src_st.sep_total <- src_st.sep_total - lost;
    add_gate_aggregates t.ch tgt_st g;
    tgt_st.sep_total <- tgt_st.sep_total + gained;
    t.assignment.(g) <- target;
    if src_st.gate_count = 0 then begin
      src_st.live <- false;
      src_st.sep_total <- 0;
      t.live_count <- t.live_count - 1
    end
  end

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

let max_transient_current t m =
  Array.fold_left Stdlib.max 0.0 t.mods.(m).current_profile

let current_profile t m = Array.copy t.mods.(m).current_profile
let activity t m slot = t.mods.(m).count_profile.(slot)
let transient_at t m slot = t.mods.(m).current_profile.(slot)
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

let module_components t m =
  let u = Charac.undirected t.ch in
  let gates = members t m in
  let index = Hashtbl.create (Array.length gates) in
  Array.iteri (fun i g -> Hashtbl.replace index g i) gates;
  let seen = Array.make (Array.length gates) false in
  let components = ref 0 in
  Array.iteri
    (fun i g ->
      if not seen.(i) then begin
        incr components;
        let q = Queue.create () in
        seen.(i) <- true;
        Queue.add g q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          Graph_algo.iter_neighbours u v (fun w ->
              match Hashtbl.find_opt index w with
              | Some j when not seen.(j) ->
                seen.(j) <- true;
                Queue.add w q
              | Some _ | None -> ())
        done
      end)
    gates;
  !components

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
