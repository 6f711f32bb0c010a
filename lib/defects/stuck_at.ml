module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module P = Iddq_patterns.Parallel_sim

type fault =
  | Stem of int * bool
  | Pin of { gate : int; pin : int; value : bool }

let pp_fault c fmt = function
  | Stem (id, v) ->
    Format.fprintf fmt "%s/sa%d" (Circuit.node_name c id) (if v then 1 else 0)
  | Pin { gate; pin; value } ->
    Format.fprintf fmt "%s.in%d/sa%d" (Circuit.node_name c gate) pin
      (if value then 1 else 0)

let full_fault_list c =
  let stems = ref [] in
  for id = Circuit.num_nodes c - 1 downto 0 do
    stems := Stem (id, false) :: Stem (id, true) :: !stems
  done;
  let pins = ref [] in
  Circuit.iter_gates c (fun g _ fanins ->
      let id = Circuit.node_of_gate c g in
      for pin = Array.length fanins - 1 downto 0 do
        pins :=
          Pin { gate = id; pin; value = false }
          :: Pin { gate = id; pin; value = true }
          :: !pins
      done);
  !stems @ List.rev !pins

(* A pin fault is equivalent to the gate's output stem fault when the
   pin value is controlling: AND/NAND input sa0, OR/NOR input sa1, and
   both values for NOT/BUFF.  Those classes keep the stem
   representative only. *)
let pin_equivalent_to_output kind value =
  match kind, value with
  | (Gate.And | Gate.Nand), false -> true
  | (Gate.Or | Gate.Nor), true -> true
  | (Gate.Not | Gate.Buff), _ -> true
  | (Gate.And | Gate.Nand), true -> false
  | (Gate.Or | Gate.Nor), false -> false
  | (Gate.Xor | Gate.Xnor), _ -> false

let collapsed_fault_list c =
  List.filter
    (function
      | Stem _ -> true
      | Pin { gate; value; _ } ->
        not (pin_equivalent_to_output (Circuit.gate_kind c gate) value))
    (full_fault_list c)

let faulty_eval c fault inputs =
  if Array.length inputs <> Circuit.num_inputs c then
    invalid_arg "Stuck_at.faulty_eval: input vector length mismatch";
  let values = Array.make (Circuit.num_nodes c) false in
  Array.blit inputs 0 values 0 (Array.length inputs);
  let stem_override id =
    match fault with
    | Stem (f, v) when f = id -> Some v
    | Stem _ | Pin _ -> None
  in
  (* stuck primary inputs *)
  for id = 0 to Circuit.num_inputs c - 1 do
    match stem_override id with Some v -> values.(id) <- v | None -> ()
  done;
  Circuit.iter_gates c (fun g kind fanins ->
      let id = Circuit.node_of_gate c g in
      let read pin src =
        match fault with
        | Pin { gate; pin = p; value } when gate = id && p = pin -> value
        | Pin _ | Stem _ -> values.(src)
      in
      let value = Gate.eval kind (Array.mapi read fanins) in
      values.(id) <-
        (match stem_override id with Some v -> v | None -> value));
  values

let detects c fault inputs =
  let good = Iddq_patterns.Logic_sim.eval c inputs in
  let bad = faulty_eval c fault inputs in
  Array.exists (fun id -> good.(id) <> bad.(id)) (Circuit.outputs c)

type sim_result = {
  total : int;
  detected : int;
  coverage : float;
  first_vector : int array;
}

(* The cone-restricted faulty machine's scratch, used by one fault
   chunk at a time.  For the current (fault, block), a node stamped with [epoch] carries its
   faulty word in [bad]; every other node reads its good word from the
   node-major [goods] (node [id], block [b] at [id * nb + b]).  The
   stamps make resetting free: a new (fault, block) bumps [epoch]. *)
type cone = {
  kinds : Bytes.t;
  fi_off : int array;
  fi_tgt : int array;
  fo_off : int array;
  fo_tgt : int array;
  outputs : int array;
  goods : P.ba;
  nb : int;
  masks : int64 array;
  bad : P.ba;
  stamp : int array;
  mutable epoch : int;
  word : P.ba; (* one-word result slot for dropping scans *)
}

let cone c ~goods ~nb ~masks ~outputs =
  let n = Circuit.num_nodes c in
  {
    kinds = Circuit.Csr.kinds c;
    fi_off = Circuit.Csr.fanin_offsets c;
    fi_tgt = Circuit.Csr.fanin_targets c;
    fo_off = Circuit.Csr.fanout_offsets c;
    fo_tgt = Circuit.Csr.fanout_targets c;
    outputs;
    goods;
    nb;
    masks;
    bad = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n;
    stamp = Array.make n 0;
    epoch = 0;
    word = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1;
  }

(* The word fanin slot [slot] (a CSR index) feeds its reader in block
   [blk]: the stuck value on the overridden [pin] slot, the faulty word
   of a stamped node, the good word otherwise. *)
let[@inline] fanin_word k blk ~pin ~value slot =
  if slot = pin then if value then Int64.minus_one else 0L
  else
    let src = Array.unsafe_get k.fi_tgt slot in
    if Array.unsafe_get k.stamp src = k.epoch then
      Bigarray.Array1.unsafe_get k.bad src
    else Bigarray.Array1.unsafe_get k.goods ((src * k.nb) + blk)

(* Evaluate gate [id] into [bad.{id}].  Every load, [Int64] op and
   store is one expression, so nothing is boxed. *)
let eval_gate k blk id ~pin ~value =
  let s = Array.unsafe_get k.fi_off id in
  let e = Array.unsafe_get k.fi_off (id + 1) in
  let code = Char.code (Bytes.unsafe_get k.kinds id) in
  Bigarray.Array1.unsafe_set k.bad id (fanin_word k blk ~pin ~value s);
  for slot = s + 1 to e - 1 do
    Bigarray.Array1.unsafe_set k.bad id
      (match code with
      | 0 | 1 ->
        Int64.logand
          (Bigarray.Array1.unsafe_get k.bad id)
          (fanin_word k blk ~pin ~value slot)
      | 2 | 3 ->
        Int64.logor
          (Bigarray.Array1.unsafe_get k.bad id)
          (fanin_word k blk ~pin ~value slot)
      | _ ->
        Int64.logxor
          (Bigarray.Array1.unsafe_get k.bad id)
          (fanin_word k blk ~pin ~value slot))
  done;
  match code with
  | 1 | 3 | 5 | 6 ->
    Bigarray.Array1.unsafe_set k.bad id
      (Int64.lognot (Bigarray.Array1.unsafe_get k.bad id))
  | _ -> ()

(* Does [bad.{id}] differ from the good word on a real vector? *)
let[@inline] differs k blk id =
  Int64.logand
    (Int64.logxor
       (Bigarray.Array1.unsafe_get k.bad id)
       (Bigarray.Array1.unsafe_get k.goods ((id * k.nb) + blk)))
    (Array.unsafe_get k.masks blk)
  <> 0L

(* Largest fanout id of [id] (fanout lists are ascending), or [id]. *)
let last_fanout k id =
  let e = Array.unsafe_get k.fo_off (id + 1) in
  if e > Array.unsafe_get k.fo_off id then Array.unsafe_get k.fo_tgt (e - 1)
  else id

let has_stamped_fanin k id =
  let e = Array.unsafe_get k.fi_off (id + 1) in
  let slot = ref (Array.unsafe_get k.fi_off id) in
  while
    !slot < e
    && Array.unsafe_get k.stamp (Array.unsafe_get k.fi_tgt !slot) <> k.epoch
  do
    incr slot
  done;
  !slot < e

(* Fault [fault]'s output-difference word in block [blk], masked to
   the block's real vectors, into [dst.{at}].  The site word comes
   first (the stuck value of a stem, or the reading gate evaluated
   with only its faulty pin overridden); an unactivated fault stops
   there.  Otherwise the walk visits ids upward from the site,
   re-evaluating only gates with a stamped fanin and stamping those
   whose word differs, until it passes the last fanout of every
   stamped node. *)
let diff_into k fault blk (dst : P.ba) at =
  k.epoch <- k.epoch + 1;
  let site =
    match fault with
    | Stem (node, value) ->
      Bigarray.Array1.unsafe_set k.bad node
        (if value then Int64.minus_one else 0L);
      node
    | Pin { gate; pin; value } ->
      eval_gate k blk gate ~pin:(Array.unsafe_get k.fi_off gate + pin) ~value;
      gate
  in
  Bigarray.Array1.unsafe_set dst at 0L;
  if differs k blk site then begin
    Array.unsafe_set k.stamp site k.epoch;
    let last = ref (last_fanout k site) in
    let id = ref (site + 1) in
    while !id <= !last do
      let i = !id in
      if has_stamped_fanin k i then begin
        eval_gate k blk i ~pin:(-1) ~value:false;
        if differs k blk i then begin
          Array.unsafe_set k.stamp i k.epoch;
          last := Stdlib.max !last (last_fanout k i)
        end
      end;
      incr id
    done;
    for o = 0 to Array.length k.outputs - 1 do
      let id = Array.unsafe_get k.outputs o in
      if Array.unsafe_get k.stamp id = k.epoch then
        Bigarray.Array1.unsafe_set dst at
          (Int64.logor
             (Bigarray.Array1.unsafe_get dst at)
             (Int64.logand
                (Int64.logxor
                   (Bigarray.Array1.unsafe_get k.bad id)
                   (Bigarray.Array1.unsafe_get k.goods ((id * k.nb) + blk)))
                (Array.unsafe_get k.masks blk)))
    done
  end

let check_fault c = function
  | Stem (id, _) ->
    if id < 0 || id >= Circuit.num_nodes c then
      invalid_arg "Stuck_at: stem fault on a node out of range"
  | Pin { gate; pin; _ } ->
    if gate < 0 || gate >= Circuit.num_nodes c || not (Circuit.is_gate c gate)
    then invalid_arg "Stuck_at: pin fault off a gate";
    if pin < 0 || pin >= Circuit.fanin_count c gate then
      invalid_arg "Stuck_at: pin fault on a missing pin"

(* Bit-parallel (64 vectors per pass) serial fault simulation: the
   vector set is packed once, the node-major good machine is built
   once on the pool ({!Fault_sim.good_values}) and shared read-only,
   and fault chunks are claimed off the same pool
   ({!Fault_sim.run_fault_chunks}), each running on an idle {!cone}.
   [visit k f] walks fault [f]'s blocks through {!diff_into} and
   returns the blocks it visited and whether it dropped the fault. *)
let simulate ?(domains = 1) ?metrics c ~vectors ~faults visit =
  let module Metrics = Iddq_util.Metrics in
  let faults = Array.of_list faults in
  Array.iter (check_fault c) faults;
  Iddq_util.Domain_pool.with_pool ~domains @@ fun pool ->
  let packed = P.pack_all vectors in
  let nb = P.num_blocks packed in
  let goods = Fault_sim.good_values ?metrics ~pool c packed in
  let masks = Array.init nb (P.block_mask packed) in
  let outputs = Circuit.outputs c in
  (* Idle cones: a chunk takes one (or makes one) and hands it back,
     so a sweep makes at most one per participant, and no cone is
     used by two chunks at once. *)
  let idle = Atomic.make [] in
  let rec take () =
    match Atomic.get idle with
    | [] -> cone c ~goods ~nb ~masks ~outputs
    | k :: rest as l -> if Atomic.compare_and_set idle l rest then k else take ()
  in
  let rec give k =
    let l = Atomic.get idle in
    if not (Atomic.compare_and_set idle l (k :: l)) then give k
  in
  let fault_blocks = Atomic.make 0 and dropped = Atomic.make 0 in
  let steals =
    Fault_sim.run_fault_chunks pool (Array.length faults) (fun lo hi ->
        let k = take () in
        let fb = ref 0 and dr = ref 0 in
        for f = lo to hi - 1 do
          let visited, drop = visit k f faults.(f) in
          fb := !fb + visited;
          if drop then incr dr
        done;
        give k;
        ignore (Atomic.fetch_and_add fault_blocks !fb);
        ignore (Atomic.fetch_and_add dropped !dr))
  in
  Option.iter
    (fun m ->
      Metrics.record_fault_sim ~steals m ~blocks:0
        ~fault_blocks:(Atomic.get fault_blocks) ~dropped:(Atomic.get dropped))
    metrics

(* Fault dropping: stop at the first detecting block. *)
let fault_simulate ?domains ?metrics c ~vectors ~faults =
  let nf = List.length faults in
  let first_vector = Array.make nf (-1) in
  simulate ?domains ?metrics c ~vectors ~faults (fun k f fault ->
      let rec scan b =
        if b >= k.nb then (k.nb, false)
        else begin
          diff_into k fault b k.word 0;
          if Bigarray.Array1.unsafe_get k.word 0 <> 0L then begin
            first_vector.(f) <-
              (b * 64)
              + Iddq_util.Bitvec.ctz64 (Bigarray.Array1.unsafe_get k.word 0);
            (b + 1, true)
          end
          else scan (b + 1)
        end
      in
      scan 0);
  let detected =
    Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 first_vector
  in
  {
    total = nf;
    detected;
    coverage = (if nf = 0 then 1.0 else float_of_int detected /. float_of_int nf);
    first_vector;
  }

let undetected ?domains ?metrics c ~vectors ~faults =
  let r = fault_simulate ?domains ?metrics c ~vectors ~faults in
  List.filteri (fun f _ -> r.first_vector.(f) < 0) faults

(* The full matrix (no dropping — every detecting vector of every
   fault), the stuck-at counterpart of {!Fault_sim.detection_matrix}:
   what the test-set minimizers ({!Coverage}) run on.  Each block's
   difference word lands straight in the fault's row. *)
let detection_matrix ?domains ?metrics c ~vectors ~faults =
  let nv = Array.length vectors in
  let rows =
    Array.of_list (List.map (fun _ -> Iddq_util.Bitvec.create nv) faults)
  in
  simulate ?domains ?metrics c ~vectors ~faults (fun k f fault ->
      let row = Iddq_util.Bitvec.unsafe_words rows.(f) in
      for b = 0 to k.nb - 1 do
        diff_into k fault b row b
      done;
      (k.nb, false));
  { Fault_sim.n_vectors = nv; rows }
