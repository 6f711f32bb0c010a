module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module P = Iddq_patterns.Parallel_sim
module Bitvec = Iddq_util.Bitvec
module Metrics = Iddq_util.Metrics

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
  (* gates ascending; within a gate, pins descending, sa1 first *)
  let pins = ref [] in
  for id = Circuit.num_nodes c - 1 downto Circuit.num_inputs c do
    for pin = 0 to Circuit.fanin_count c id - 1 do
      pins :=
        Pin { gate = id; pin; value = true }
        :: Pin { gate = id; pin; value = false }
        :: !pins
    done
  done;
  !stems @ !pins

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
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    let s = offsets.(id) in
    let read pin =
      match fault with
      | Pin { gate; pin = p; value } when gate = id && p = pin -> value
      | Pin _ | Stem _ -> values.(targets.(s + pin))
    in
    let value =
      Gate.eval (Circuit.gate_kind c id) (Array.init (offsets.(id + 1) - s) read)
    in
    values.(id) <- (match stem_override id with Some v -> v | None -> value)
  done;
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

(* The cone-restricted faulty machine's scratch.  A walk covers [w <=
   cap] consecutive blocks from [blk0]; for the current walk, a node
   stamped with [epoch] carries its faulty words in [bad] (node [id],
   block [blk0 + b] at [id * w + b]); every other node reads its good
   words from the node-major [goods] (node [id], block [b] at [id * nb
   + b]).  The stamps make resetting free: a new walk bumps [epoch].

   The circuit is cut into fanout-free regions.  [reader.(id)] is the
   one fanin slot (a CSR index) reading node [id], or [-1] when [id]
   is a region root: a primary output, or a node read by a number of
   slots other than one (a gate reading it on two pins counts twice).
   [slot_gate] maps a slot to the gate it feeds.  [obs] memoizes each
   root's observability words (root [r], block [blk0 + b] at [r * cap
   + b]); they are valid while [obs_stamp.(r) = obs_epoch], and a new
   good machine or walk group bumps [obs_epoch]. *)
type cone = {
  kinds : Bytes.t;
  fi_off : int array;
  fi_tgt : int array;
  fo_off : int array;
  fo_tgt : int array;
  outputs : int array;
  reader : int array;
  slot_gate : int array;
  goods : P.ba;
  nb : int;
  masks : int64 array;
  cap : int;
  bad : P.ba;
  stamp : int array;
  mutable epoch : int;
  obs : P.ba;
  obs_stamp : int array;
  mutable obs_epoch : int;
}

let cone c ~goods ~nb ~masks ~cap =
  let n = Circuit.num_nodes c in
  let fi_off = Circuit.Csr.fanin_offsets c in
  let fi_tgt = Circuit.Csr.fanin_targets c in
  let outputs = Circuit.outputs c in
  let reads = Array.make n 0 and reader = Array.make n (-1) in
  let slot_gate = Array.make fi_off.(n) 0 in
  for id = 0 to n - 1 do
    for slot = fi_off.(id) to fi_off.(id + 1) - 1 do
      let src = fi_tgt.(slot) in
      slot_gate.(slot) <- id;
      reads.(src) <- reads.(src) + 1;
      reader.(src) <- slot
    done
  done;
  Array.iteri (fun id r -> if r <> 1 then reader.(id) <- -1) reads;
  Array.iter (fun id -> reader.(id) <- -1) outputs;
  {
    kinds = Circuit.Csr.kinds c;
    fi_off;
    fi_tgt;
    fo_off = Circuit.Csr.fanout_offsets c;
    fo_tgt = Circuit.Csr.fanout_targets c;
    outputs;
    reader;
    slot_gate;
    goods;
    nb;
    masks;
    cap;
    bad = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n * cap);
    stamp = Array.make n 0;
    epoch = 0;
    obs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (n * cap);
    obs_stamp = Array.make n 0;
    obs_epoch = 1;
  }

(* The good machine, or the walk group, changed: every memoized
   observability is stale. *)
let forget_observability k = k.obs_epoch <- k.obs_epoch + 1

(* The word fanin slot [slot] (a CSR index) feeds its reader in block
   [blk0 + b] of a walk [w] blocks wide: the stuck value on the
   overridden [pin] slot, the faulty word of a stamped node, the good
   word otherwise. *)
let[@inline] fanin_word k ~blk0 ~w b ~pin ~value slot =
  if slot = pin then if value then Int64.minus_one else 0L
  else
    let src = Array.unsafe_get k.fi_tgt slot in
    if Array.unsafe_get k.stamp src = k.epoch then
      Bigarray.Array1.unsafe_get k.bad ((src * w) + b)
    else Bigarray.Array1.unsafe_get k.goods ((src * k.nb) + blk0 + b)

(* Evaluate gate [id] into its [w] words of [bad].  Every load,
   [Int64] op and store is one expression, so nothing is boxed. *)
let eval_gate k ~blk0 ~w id ~pin ~value =
  let s = Array.unsafe_get k.fi_off id in
  let e = Array.unsafe_get k.fi_off (id + 1) in
  let code = Char.code (Bytes.unsafe_get k.kinds id) in
  let base = id * w in
  for b = 0 to w - 1 do
    Bigarray.Array1.unsafe_set k.bad (base + b)
      (fanin_word k ~blk0 ~w b ~pin ~value s)
  done;
  (match code with
  | 0 | 1 ->
    for slot = s + 1 to e - 1 do
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set k.bad (base + b)
          (Int64.logand
             (Bigarray.Array1.unsafe_get k.bad (base + b))
             (fanin_word k ~blk0 ~w b ~pin ~value slot))
      done
    done
  | 2 | 3 ->
    for slot = s + 1 to e - 1 do
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set k.bad (base + b)
          (Int64.logor
             (Bigarray.Array1.unsafe_get k.bad (base + b))
             (fanin_word k ~blk0 ~w b ~pin ~value slot))
      done
    done
  | _ ->
    for slot = s + 1 to e - 1 do
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set k.bad (base + b)
          (Int64.logxor
             (Bigarray.Array1.unsafe_get k.bad (base + b))
             (fanin_word k ~blk0 ~w b ~pin ~value slot))
      done
    done);
  match code with
  | 1 | 3 | 5 | 6 ->
    for b = 0 to w - 1 do
      Bigarray.Array1.unsafe_set k.bad (base + b)
        (Int64.lognot (Bigarray.Array1.unsafe_get k.bad (base + b)))
    done
  | _ -> ()

(* Node [id]'s faulty and good words in block [blk0 + b], XORed and
   masked to the block's real vectors. *)
let[@inline] diff_word k ~blk0 ~w id b =
  Int64.logand
    (Int64.logxor
       (Bigarray.Array1.unsafe_get k.bad ((id * w) + b))
       (Bigarray.Array1.unsafe_get k.goods ((id * k.nb) + blk0 + b)))
    (Array.unsafe_get k.masks (blk0 + b))

(* Do [id]'s faulty words differ from the good ones on a real vector
   of some block of the walk? *)
let differs k ~blk0 ~w id =
  let b = ref 0 in
  while !b < w && diff_word k ~blk0 ~w id !b = 0L do
    incr b
  done;
  !b < w

(* Is some word of [dst.{at .. at + w - 1}] nonzero? *)
let any_set (dst : P.ba) at w =
  let b = ref 0 in
  while !b < w && Bigarray.Array1.unsafe_get dst (at + !b) = 0L do
    incr b
  done;
  !b < w

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

(* Root [r]'s observability in blocks [blk0 .. blk0 + w - 1]: the
   output differences, masked to the real vectors, of complementing
   [r] in every lane.  One walk visits ids upward from [r],
   re-evaluating only gates with a stamped fanin and stamping those
   whose words differ in some block, until it passes the last fanout
   of every stamped node.  Lanes are independent, so a node stamped
   for one block carries exact faulty words in the others too.  The
   words are memoized until {!forget_observability}; the offset of
   [r]'s words in [obs] is returned. *)
let observe k ~blk0 ~w r =
  let at = r * k.cap in
  if Array.unsafe_get k.obs_stamp r <> k.obs_epoch then begin
    Array.unsafe_set k.obs_stamp r k.obs_epoch;
    k.epoch <- k.epoch + 1;
    for b = 0 to w - 1 do
      Bigarray.Array1.unsafe_set k.bad ((r * w) + b)
        (Int64.lognot
           (Bigarray.Array1.unsafe_get k.goods ((r * k.nb) + blk0 + b)));
      Bigarray.Array1.unsafe_set k.obs (at + b) 0L
    done;
    Array.unsafe_set k.stamp r k.epoch;
    let last = ref (last_fanout k r) in
    let id = ref (r + 1) in
    while !id <= !last do
      let i = !id in
      if has_stamped_fanin k i then begin
        eval_gate k ~blk0 ~w i ~pin:(-1) ~value:false;
        if differs k ~blk0 ~w i then begin
          Array.unsafe_set k.stamp i k.epoch;
          last := Stdlib.max !last (last_fanout k i)
        end
      end;
      incr id
    done;
    for o = 0 to Array.length k.outputs - 1 do
      let id = Array.unsafe_get k.outputs o in
      if Array.unsafe_get k.stamp id = k.epoch then
        for b = 0 to w - 1 do
          Bigarray.Array1.unsafe_set k.obs (at + b)
            (Int64.logor
               (Bigarray.Array1.unsafe_get k.obs (at + b))
               (diff_word k ~blk0 ~w id b))
        done
    done
  end;
  at

(* AND the difference words [dst.{at .. at + w - 1}] on fanin slot
   [skip] of gate [g] with what lets them through [g]: the good words
   of the other fanins for AND/NAND, their complements for OR/NOR.
   XOR, XNOR, NOT and BUFF pass every difference. *)
let sensitize k ~blk0 ~w g skip (dst : P.ba) at =
  let s = Array.unsafe_get k.fi_off g in
  let e = Array.unsafe_get k.fi_off (g + 1) in
  match Char.code (Bytes.unsafe_get k.kinds g) with
  | 0 | 1 ->
    for slot = s to e - 1 do
      if slot <> skip then begin
        let src = (Array.unsafe_get k.fi_tgt slot * k.nb) + blk0 in
        for b = 0 to w - 1 do
          Bigarray.Array1.unsafe_set dst (at + b)
            (Int64.logand
               (Bigarray.Array1.unsafe_get dst (at + b))
               (Bigarray.Array1.unsafe_get k.goods (src + b)))
        done
      end
    done
  | 2 | 3 ->
    for slot = s to e - 1 do
      if slot <> skip then begin
        let src = (Array.unsafe_get k.fi_tgt slot * k.nb) + blk0 in
        for b = 0 to w - 1 do
          Bigarray.Array1.unsafe_set dst (at + b)
            (Int64.logand
               (Bigarray.Array1.unsafe_get dst (at + b))
               (Int64.lognot (Bigarray.Array1.unsafe_get k.goods (src + b))))
        done
      end
    done
  | _ -> ()

(* Fault [fault]'s output-difference words in blocks [blk0 .. blk0 +
   width - 1] ([width <= cap]), masked to the blocks' real vectors,
   into [dst.{at .. at + width - 1}].  The site difference comes
   first (the stuck value of a stem, or the reading gate evaluated
   with only its faulty pin overridden, against the good words).
   Inside the site's fanout-free region the effect has one path, to
   the region's root, so the difference climbs it gate by gate,
   ANDed with each gate's side-input sensitization, and stops as soon
   as it is zero.  In every lane where it reaches the root, the
   faulty machine is the good one with the root complemented, so the
   row is the difference at the root ANDed with the root's memoized
   observability. *)
let diff_into k fault ~blk0 ~width:w (dst : P.ba) at =
  let site =
    match fault with
    | Stem (node, value) ->
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set dst (at + b)
          (Int64.logand
             (Int64.logxor
                (Bigarray.Array1.unsafe_get k.goods ((node * k.nb) + blk0 + b))
                (if value then Int64.minus_one else 0L))
             (Array.unsafe_get k.masks (blk0 + b)))
      done;
      node
    | Pin { gate; pin; value } ->
      (* a fresh epoch: no stamp of an earlier walk feeds the gate *)
      k.epoch <- k.epoch + 1;
      eval_gate k ~blk0 ~w gate
        ~pin:(Array.unsafe_get k.fi_off gate + pin)
        ~value;
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set dst (at + b) (diff_word k ~blk0 ~w gate b)
      done;
      gate
  in
  let node = ref site in
  while !node >= 0 && any_set dst at w do
    let slot = Array.unsafe_get k.reader !node in
    if slot < 0 then begin
      let o = observe k ~blk0 ~w !node in
      for b = 0 to w - 1 do
        Bigarray.Array1.unsafe_set dst (at + b)
          (Int64.logand
             (Bigarray.Array1.unsafe_get dst (at + b))
             (Bigarray.Array1.unsafe_get k.obs (o + b)))
      done;
      node := -1
    end
    else begin
      let g = Array.unsafe_get k.slot_gate slot in
      sensitize k ~blk0 ~w g slot dst at;
      node := g
    end
  done

let validate_fault c fault =
  let n = Circuit.num_nodes c in
  match fault with
  | Stem (id, _) ->
    if id < 0 || id >= n then
      Error (Printf.sprintf "stem fault on node %d, circuit has %d nodes" id n)
    else Ok ()
  | Pin { gate; pin; _ } ->
    if gate < 0 || gate >= n then
      Error (Printf.sprintf "pin fault on node %d, circuit has %d nodes" gate n)
    else if not (Circuit.is_gate c gate) then
      Error
        (Printf.sprintf "pin fault on node %d, which is a primary input" gate)
    else
      let arity = Circuit.fanin_count c gate in
      if pin < 0 || pin >= arity then
        Error
          (Printf.sprintf "pin %d of gate node %d, which has %d fanins" pin gate
             arity)
      else Ok ()

let check_fault c f =
  Result.iter_error
    (fun m -> invalid_arg ("Stuck_at: " ^ m))
    (validate_fault c f)

module Block = struct
  type t = { circuit : Circuit.t; rows : P.row_map; k : cone; word : P.ba }

  (* One block's good machine and the cone scratch over it, allocated
     once; a load overwrites the good words and the block mask. *)
  let create c =
    let goods =
      Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
        (Circuit.num_nodes c)
    in
    {
      circuit = c;
      rows = P.all_rows c;
      k = cone c ~goods ~nb:1 ~masks:[| 0L |] ~cap:1;
      word = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1;
    }

  let load t vectors =
    let nv = Array.length vectors in
    if nv < 1 || nv > 64 then
      invalid_arg
        (Printf.sprintf "Stuck_at.Block.load: %d vectors, want 1 to 64" nv);
    let packed = P.pack_all vectors in
    P.eval_all_into t.circuit packed ~rows:t.rows ~dst:t.k.goods;
    t.k.masks.(0) <- P.block_mask packed 0;
    forget_observability t.k

  let first_lane t fault =
    check_fault t.circuit fault;
    diff_into t.k fault ~blk0:0 ~width:1 t.word 0;
    if Bigarray.Array1.unsafe_get t.word 0 = 0L then -1
    else begin
      (* the lowest set bit, found by shifting rather than by a call
         that would box the word *)
      let lane = ref 0 in
      while
        Int64.logand
          (Int64.shift_right_logical (Bigarray.Array1.unsafe_get t.word 0) !lane)
          1L
        = 0L
      do
        incr lane
      done;
      !lane
    end

  let detects t fault = first_lane t fault >= 0
end

(* Fault dropping, block by block: the faults still undetected are
   checked against each block of 64 vectors in turn through one
   {!Block}, and a fault leaves the live set at its first detecting
   block.  Every fault is validated before any block is loaded. *)
let fault_simulate ?metrics c ~vectors ~faults =
  let faults = Array.of_list faults in
  Array.iter (check_fault c) faults;
  let nf = Array.length faults and nv = Array.length vectors in
  let nb = (nv + 63) / 64 in
  let first_vector = Array.make nf (-1) in
  let live = Array.init nf Fun.id and n_live = ref nf in
  let fault_blocks = ref 0 in
  let block = Block.create c in
  for b = 0 to nb - 1 do
    if !n_live > 0 then begin
      Block.load block
        (Array.sub vectors (b * 64) (Stdlib.min 64 (nv - (b * 64))));
      fault_blocks := !fault_blocks + !n_live;
      let kept = ref 0 in
      for i = 0 to !n_live - 1 do
        let f = live.(i) in
        let lane = Block.first_lane block faults.(f) in
        if lane >= 0 then first_vector.(f) <- (b * 64) + lane
        else begin
          live.(!kept) <- f;
          incr kept
        end
      done;
      n_live := !kept
    end
  done;
  let detected = nf - !n_live in
  Option.iter
    (fun m ->
      Metrics.record_fault_sim m ~blocks:nb ~fault_blocks:!fault_blocks
        ~dropped:detected)
    metrics;
  {
    total = nf;
    detected;
    coverage =
      (if nf = 0 then 1.0 else float_of_int detected /. float_of_int nf);
    first_vector;
  }

(* The full matrix (no dropping — every detecting vector of every
   fault), the stuck-at counterpart of {!Fault_sim.detection_matrix}:
   what the test-set minimizers ({!Coverage}) run on.  The node-major
   good machine of every block is evaluated once; the blocks are then
   taken in walk groups of up to [matrix_walk], and within a group
   every fault's difference words land straight in its row, each
   region root walked at most once per group. *)
let matrix_walk = 8

let detection_matrix ?metrics c ~vectors ~faults =
  let faults = Array.of_list faults in
  Array.iter (check_fault c) faults;
  let packed = P.pack_all vectors in
  let nb = P.num_blocks packed and nv = P.n_vectors packed in
  let goods =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
      (Circuit.num_nodes c * nb)
  in
  P.eval_all_into c packed ~rows:(P.all_rows c) ~dst:goods;
  let k =
    cone c ~goods ~nb
      ~masks:(Array.init nb (P.block_mask packed))
      ~cap:(Stdlib.min matrix_walk nb)
  in
  let rows = Array.map (fun _ -> Bitvec.create nv) faults in
  let b = ref 0 in
  while !b < nb do
    let blk0 = !b and width = Stdlib.min k.cap (nb - !b) in
    forget_observability k;
    Array.iteri
      (fun i fault ->
        diff_into k fault ~blk0 ~width (Bitvec.unsafe_words rows.(i)) blk0)
      faults;
    b := blk0 + width
  done;
  Option.iter
    (fun m ->
      Metrics.record_fault_sim m ~blocks:nb
        ~fault_blocks:(Array.length faults * nb) ~dropped:0)
    metrics;
  { Fault_sim.n_vectors = nv; rows }
