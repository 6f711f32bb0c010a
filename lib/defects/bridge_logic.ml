module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Graph_algo = Iddq_netlist.Graph_algo
module Logic_sim = Iddq_patterns.Logic_sim

let is_feedback c a b =
  if a = b then false
  else begin
    let from_a = Graph_algo.reachable_from c [| a |] in
    let from_b = Graph_algo.reachable_from c [| b |] in
    (* reachable_from includes the seeds themselves; a loop exists when
       each net lies strictly in the other's transitive fanout *)
    from_a.(b) && from_b.(a)
  end

let faulty_eval c ~a ~b inputs =
  if is_feedback c a b then None
  else begin
    let good = Logic_sim.eval c inputs in
    let bridged = good.(a) && good.(b) in
    let values = Array.copy good in
    values.(a) <- bridged;
    values.(b) <- bridged;
    (* repropagate forward; the bridged nets themselves stay forced
       (at most one of them can be downstream of the other) *)
    let offsets = Circuit.Csr.fanin_offsets c in
    let targets = Circuit.Csr.fanin_targets c in
    for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
      if id <> a && id <> b then begin
        let s = offsets.(id) in
        values.(id) <-
          Gate.eval (Circuit.gate_kind c id)
            (Array.init (offsets.(id + 1) - s) (fun k -> values.(targets.(s + k))))
      end
    done;
    Some values
  end

let logic_detects c ~a ~b inputs =
  match faulty_eval c ~a ~b inputs with
  | None -> false
  | Some bad ->
    let good = Logic_sim.eval c inputs in
    Array.exists (fun id -> good.(id) <> bad.(id)) (Circuit.outputs c)

let iddq_detects c ~a ~b inputs =
  let good = Logic_sim.eval c inputs in
  good.(a) <> good.(b)
