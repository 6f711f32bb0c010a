module Circuit = Iddq_netlist.Circuit
module Technology = Iddq_celllib.Technology

(* Both passes below walk gates by increasing (or decreasing) id and
   read values already written for neighbours, so they are only
   correct when gate ids are topologically ordered — every fanin of a
   gate has a smaller gate id.  [Builder.freeze] establishes this for
   every circuit constructor in the library; [Circuit.unsafe_make]
   trusts its caller.  Rather than silently producing wrong delays on
   a violating circuit, the passes check the invariant on the edges
   they traverse anyway (negligible cost) and fail loudly. *)
let out_of_order ~where ~gate ~neighbour =
  invalid_arg
    (Printf.sprintf
       "Timing.%s: circuit is not topologically ordered: gate %d reads gate \
        %d, which does not precede it (was the circuit built with \
        Circuit.unsafe_make? use Builder.freeze / Circuit.validate)"
       where gate neighbour)

(* Every pass reads fanins (or fanouts) straight from the CSR arrays,
   in stored order: [critical_path] keeps the first latest fanin on a
   tie.  The arrival pass reads one delay per gate from a float array
   and writes into [arr], so a caller that owns both allocates
   nothing. *)
let fill_arrivals ch delays arr =
  let c = Charac.circuit ch in
  let ni = Circuit.num_inputs c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  for id = ni to Circuit.num_nodes c - 1 do
    let g = id - ni in
    let latest = ref 0.0 in
    for k = offsets.(id) to offsets.(id + 1) - 1 do
      let h = targets.(k) - ni in
      if h >= 0 then begin
        if h >= g then out_of_order ~where:"arrival_times" ~gate:g ~neighbour:h;
        if not (!latest >= arr.(h)) then latest := arr.(h)
      end
    done;
    arr.(g) <- !latest +. delays.(g)
  done

let delays_of ch gate_delay = Array.init (Charac.num_gates ch) gate_delay

let arrival_times ch ~gate_delay =
  let arr = Array.make (Charac.num_gates ch) 0.0 in
  fill_arrivals ch (delays_of ch gate_delay) arr;
  arr

(* Latest arrival over the primary outputs that are gates. *)
let latest_output c arr =
  let outputs = Circuit.Csr.outputs c in
  let latest = ref 0.0 in
  for i = 0 to Array.length outputs - 1 do
    let id = outputs.(i) in
    if Circuit.is_gate c id then begin
      let a = arr.(Circuit.gate_of_node c id) in
      if not (!latest >= a) then latest := a
    end
  done;
  !latest

(* The arrivals of [longest_path_of_delays], one buffer per domain,
   grown to the largest circuit seen: evaluators on distinct domains
   run at once, and one domain runs one pass at a time. *)
let arrival_buffer : float array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [||])

let longest_path_of_delays ch delays =
  let n = Charac.num_gates ch in
  if Array.length delays <> n then
    invalid_arg "Timing.longest_path_of_delays: one delay per gate expected";
  let arr =
    let b = Domain.DLS.get arrival_buffer in
    if Array.length b >= n then b
    else begin
      let b = Array.make n 0.0 in
      Domain.DLS.set arrival_buffer b;
      b
    end
  in
  fill_arrivals ch delays arr;
  latest_output (Charac.circuit ch) arr

let longest_path ch ~gate_delay =
  longest_path_of_delays ch (delays_of ch gate_delay)

let nominal_delay ch = longest_path ch ~gate_delay:(Charac.delay ch)

let critical_path ch ~gate_delay =
  let c = Charac.circuit ch in
  let ni = Circuit.num_inputs c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  let arr = arrival_times ch ~gate_delay in
  (* end of the path: the latest-arriving output gate *)
  let last =
    Array.fold_left
      (fun acc id ->
        if Circuit.is_gate c id then begin
          let g = Circuit.gate_of_node c id in
          match acc with
          | Some best when arr.(best) >= arr.(g) -> acc
          | Some _ | None -> Some g
        end
        else acc)
      None (Circuit.outputs c)
  in
  (* walk backwards through the latest-arriving gate fanin each time *)
  let rec walk g acc =
    let acc = g :: acc in
    let id = g + ni in
    let pred = ref (-1) in
    for k = offsets.(id) to offsets.(id + 1) - 1 do
      let h = targets.(k) - ni in
      if h >= 0 && (!pred < 0 || not (arr.(!pred) >= arr.(h))) then pred := h
    done;
    if !pred < 0 then acc else walk !pred acc
  in
  match last with None -> [] | Some g -> walk g []

let slacks ch ~gate_delay =
  let c = Charac.circuit ch in
  let n = Charac.num_gates ch in
  let ni = Circuit.num_inputs c in
  let offsets = Circuit.Csr.fanout_offsets c in
  let targets = Circuit.Csr.fanout_targets c in
  let arr = arrival_times ch ~gate_delay in
  let total = latest_output c arr in
  (* required time at each gate's *output*, computed in reverse
     topological order: outputs are required at [total]; an internal
     gate must settle before every reader's required time minus that
     reader's own delay.  Every fanout of a node is a gate. *)
  let required = Array.make n infinity in
  Array.iter
    (fun id ->
      if Circuit.is_gate c id then required.(Circuit.gate_of_node c id) <- total)
    (Circuit.outputs c);
  for g = n - 1 downto 0 do
    let id = g + ni in
    for k = offsets.(id) to offsets.(id + 1) - 1 do
      let reader = targets.(k) - ni in
      if reader <= g then out_of_order ~where:"slacks" ~gate:g ~neighbour:reader;
      let candidate = required.(reader) -. gate_delay reader in
      if candidate < required.(g) then required.(g) <- candidate
    done
  done;
  Array.init n (fun g ->
      if required.(g) = infinity then
        (* dead-end gate driving no output: unconstrained *)
        total -. arr.(g)
      else required.(g) -. arr.(g))

(* Inlined, so a per-gate caller passes and gets back unboxed floats:
   the incremental evaluator calls it once per recomputed gate. *)
let[@inline] degradation_factor ~vdd ~rs ~cs ~rg ~cg ~transient_current =
  let bounce = rs *. transient_current in
  let tau_s = rs *. cs and tau_g = rg *. cg in
  let overlap =
    if tau_s +. tau_g <= 0.0 then 0.0 else tau_s /. (tau_s +. tau_g)
  in
  let loss = bounce /. vdd in
  1.0 +. (loss *. loss *. overlap)

let bic_delay ch ~module_of_gate ~rs_of_module ~cs_of_module ~module_current =
  let vdd = (Charac.technology ch).Technology.vdd in
  let gate_delay g =
    let m = module_of_gate.(g) in
    let t = Charac.gate_depth ch g in
    let delta =
      degradation_factor ~vdd ~rs:(rs_of_module m) ~cs:(cs_of_module m)
        ~rg:(Charac.drive_resistance ch g)
        ~cg:(Charac.output_capacitance ch g)
        ~transient_current:(module_current m t)
    in
    Charac.delay ch g *. delta
  in
  longest_path ch ~gate_delay
