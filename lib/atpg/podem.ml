module Circuit = Iddq_netlist.Circuit
module Scoap = Iddq_analysis.Scoap
module Stuck_at = Iddq_defects.Stuck_at
module Rng = Iddq_util.Rng

type result = Test of bool option array | Untestable | Aborted

(* Three-valued values: the oracle's node values and the input
   assignment, one byte each. *)
let v0 = 0
let v1 = 1
let vx = 2

(* Two-rail values: three-valued [v] is the two bits [v + 1] — bit 0
   "can be 0", bit 1 "can be 1", so X = 0b11.  A node's byte holds the
   good machine in bits 0-1 and the faulty machine in bits 2-3. *)
let rx = 0b11
let[@inline] good_rail b = b land 0b0011
let[@inline] faulty_rail b = b lsr 2

(* The byte of a node whose two machines both carry [v]. *)
let[@inline] both v = (v + 1) * 0b0101

(* Kind codes ({!Iddq_netlist.Gate.code}). *)
let nand = 1
let or_ = 2
let nor = 3
let xnor = 5
let not_ = 6

type t = {
  circuit : Circuit.t;
  n : int;
  ni : int;
  kinds : Bytes.t;
  fi_off : int array;
  fi_tgt : int array;
  fo_off : int array;
  fo_tgt : int array;
  outputs : int array;
  is_output : Bytes.t;
  cc0 : int array;
  cc1 : int array;
  assignment : Bytes.t; (* per primary input, three-valued *)
  gf : Bytes.t; (* per node, two-rail: good and faulty machine *)
  all_x : Bytes.t; (* [gf] under the all-X assignment, no fault *)
  level : int array; (* per node; inputs at 0 *)
  q_base : int array; (* level [l] queues into [queue] from [q_base.(l - 1)] *)
  q_fill : int array; (* per level: gates queued *)
  queue : int array;
  queued : int array; (* enqueue stamps, one epoch per propagation *)
  mutable q_epoch : int;
  mutable q_lo : int; (* lowest and highest level queued *)
  mutable q_hi : int;
  in_cone : int array; (* fanout-cone marks, one epoch per fault *)
  mutable cone_epoch : int;
  cone : int array; (* the fault's fanout cone gates, ascending *)
  mutable cone_len : int;
  visited : int array; (* X-path DFS marks, one epoch per test *)
  mutable epoch : int;
  dfs : int array;
  decisions : int array; (* assigned primary inputs, oldest first *)
  flipped : Bytes.t; (* per decision: alternative already tried *)
  marks : int array; (* per decision: [log_len] before its implication *)
  mutable log : int array; (* changed bytes, oldest first: [id lsl 4 lor old] *)
  mutable log_len : int;
}

let[@inline] get b i = Char.code (Bytes.unsafe_get b i)
let[@inline] set b i v = Bytes.unsafe_set b i (Char.unsafe_chr v)
let[@inline] not3 v = if v = vx then vx else 1 - v

(* Gate [id] over the three-valued values in [vals], with fanin slot
   [pin] (a CSR index; [-1] for none) reading [pin_value] instead: the
   scalar evaluation of the whole-circuit oracle. *)
let eval3 t vals id ~pin ~pin_value =
  let s = Array.unsafe_get t.fi_off id in
  let e = Array.unsafe_get t.fi_off (id + 1) in
  let code = Char.code (Bytes.unsafe_get t.kinds id) in
  let r = ref 0 in
  (match code with
  | 0 | 1 ->
    (* And / Nand: 0 dominates, then X *)
    r := v1;
    for k = s to e - 1 do
      let x =
        if k = pin then pin_value else get vals (Array.unsafe_get t.fi_tgt k)
      in
      if x = v0 then r := v0 else if x = vx && !r = v1 then r := vx
    done
  | 2 | 3 ->
    (* Or / Nor: 1 dominates, then X *)
    r := v0;
    for k = s to e - 1 do
      let x =
        if k = pin then pin_value else get vals (Array.unsafe_get t.fi_tgt k)
      in
      if x = v1 then r := v1 else if x = vx && !r = v0 then r := vx
    done
  | 4 | 5 ->
    (* Xor / Xnor: any X poisons the parity *)
    r := v0;
    for k = s to e - 1 do
      let x =
        if k = pin then pin_value else get vals (Array.unsafe_get t.fi_tgt k)
      in
      if x = vx || !r = vx then r := vx else r := !r lxor x
    done
  | _ ->
    (* Not / Buff *)
    r := if s = pin then pin_value else get vals (Array.unsafe_get t.fi_tgt s));
  if code = nand || code = nor || code = xnor || code = not_ then not3 !r
  else !r

(* Kind codes whose output inverts: Nand, Nor, Xnor, Not. *)
let inverting = 0b0110_1010

(* Fanin slot [k]'s two-rail byte in [gf], its faulty rail forced to
   [forced] (a faulty rail shifted into bits 2-3) when [k] is the
   faulty pin [pin]. *)
let[@inline] fanin t k ~pin ~forced =
  let b = get t.gf (Array.unsafe_get t.fi_tgt k) in
  if k = pin then good_rail b lor forced else b

(* Gate [id]'s two-rail byte over [gf]: both machines from one load
   per fanin, with no branch on the values.  And/Or keep a running AND
   and OR of the fanin bytes — an And can be 1 when every fanin can,
   and can be 0 when some fanin can; Or is the mirror image.  A parity
   rail is X when some fanin's rail is, else the parity of the fanins'
   can-be-1 bits.  Inversion swaps each rail's two bits. *)
let eval2 t id ~pin ~forced =
  let s = Array.unsafe_get t.fi_off id in
  let e = Array.unsafe_get t.fi_off (id + 1) in
  let code = Char.code (Bytes.unsafe_get t.kinds id) in
  let r =
    if code >= not_ then fanin t s ~pin ~forced
    else if code < 4 then begin
      let a = ref 0b1111 and o = ref 0 in
      for k = s to e - 1 do
        let b = fanin t k ~pin ~forced in
        a := !a land b;
        o := !o lor b
      done;
      if code < or_ then (!a land 0b1010) lor (!o land 0b0101)
      else (!o land 0b1010) lor (!a land 0b0101)
    end
    else begin
      let p = ref 0 and x = ref 0 in
      for k = s to e - 1 do
        let b = fanin t k ~pin ~forced in
        p := !p lxor b;
        x := !x lor (b land (b lsr 1))
      done;
      (* per rail: parity bit [p] as the rail [p + 1], or X *)
      let p = (!p lsr 1) land 0b0101 and x = !x land 0b0101 in
      (p lsl 1) lor (p lxor 0b0101) lor x lor (x lsl 1)
    end
  in
  if (inverting lsr code) land 1 = 0 then r
  else ((r land 0b0101) lsl 1) lor ((r lsr 1) land 0b0101)

let prepare c =
  let n = Circuit.num_nodes c and ni = Circuit.num_inputs c in
  let scoap = Scoap.compute c in
  let outputs = Circuit.outputs c in
  let is_output = Bytes.make n '\000' in
  Array.iter (fun id -> Bytes.set is_output id '\001') outputs;
  let t =
    {
      circuit = c;
      n;
      ni;
      kinds = Circuit.Csr.kinds c;
      fi_off = Circuit.Csr.fanin_offsets c;
      fi_tgt = Circuit.Csr.fanin_targets c;
      fo_off = Circuit.Csr.fanout_offsets c;
      fo_tgt = Circuit.Csr.fanout_targets c;
      outputs;
      is_output;
      cc0 = Array.init n (Scoap.cc0 scoap);
      cc1 = Array.init n (Scoap.cc1 scoap);
      assignment = Bytes.make ni (Char.chr vx);
      gf = Bytes.make n (Char.chr (both vx));
      all_x = Bytes.create n;
      level = Circuit.Csr.levels c;
      q_base = Circuit.Csr.level_offsets c;
      q_fill = Array.make (Circuit.depth c + 1) 0;
      queue = Array.make (n - ni) 0;
      queued = Array.make n 0;
      q_epoch = 1;
      q_lo = max_int;
      q_hi = 0;
      in_cone = Array.make n 0;
      cone_epoch = 0;
      cone = Array.make n 0;
      cone_len = 0;
      visited = Array.make n 0;
      epoch = 0;
      dfs = Array.make n 0;
      decisions = Array.make ni 0;
      flipped = Bytes.make ni '\000';
      marks = Array.make ni 0;
      log = Array.make n 0;
      log_len = 0;
    }
  in
  for id = ni to n - 1 do
    set t.gf id (eval2 t id ~pin:(-1) ~forced:0)
  done;
  Bytes.blit t.gf 0 t.all_x 0 n;
  t

(* The fault, decoded once: the stuck stem ([stem], [-1] for a pin
   fault) or the faulty pin's CSR slot ([pin], [-1] for a stem fault)
   of reading gate [gate]; [forced] is the stuck value as a faulty
   rail; the activation objective is [site] carrying [site_value]. *)
type decoded = {
  stem : int;
  gate : int;
  pin : int;
  stuck : int;
  forced : int;
  site : int;
  site_value : int;
}

let decode t fault =
  Result.iter_error
    (fun m -> invalid_arg ("Podem: " ^ m))
    (Stuck_at.validate_fault t.circuit fault);
  match fault with
  | Stuck_at.Stem (id, v) ->
    let stuck = if v then v1 else v0 in
    let forced = (stuck + 1) lsl 2 in
    { stem = id; gate = -1; pin = -1; stuck; forced; site = id; site_value = 1 - stuck }
  | Stuck_at.Pin { gate; pin; value } ->
    let s = t.fi_off.(gate) in
    let stuck = if value then v1 else v0 in
    {
      stem = -1;
      gate;
      pin = s + pin;
      stuck;
      forced = (stuck + 1) lsl 2;
      site = t.fi_tgt.(s + pin);
      site_value = 1 - stuck;
    }

(* Node [id]'s faulty value over the values in [vals]: the stuck value
   on the stem, the reading gate evaluated with its faulty pin
   overridden, the plain evaluation elsewhere. *)
let[@inline] faulty_value t d vals id =
  if id = d.stem then d.stuck
  else if id = d.gate then eval3 t vals id ~pin:d.pin ~pin_value:d.stuck
  else eval3 t vals id ~pin:(-1) ~pin_value:0

(* Whole-circuit good and faulty implication of the current assignment
   into [good] and [faulty]: the oracle {!imply} is checked against. *)
let imply_full t d ~good ~faulty =
  Bytes.blit t.assignment 0 good 0 t.ni;
  Bytes.blit t.assignment 0 faulty 0 t.ni;
  if d.stem >= 0 && d.stem < t.ni then set faulty d.stem d.stuck;
  for id = t.ni to t.n - 1 do
    set good id (eval3 t good id ~pin:(-1) ~pin_value:0);
    set faulty id (faulty_value t d faulty id)
  done

(* Queue gate [id] for re-evaluation in its level's bucket, once per
   propagation. *)
let enqueue t id =
  if Array.unsafe_get t.queued id <> t.q_epoch then begin
    Array.unsafe_set t.queued id t.q_epoch;
    let l = Array.unsafe_get t.level id in
    let fill = Array.unsafe_get t.q_fill l in
    Array.unsafe_set t.queue (Array.unsafe_get t.q_base (l - 1) + fill) id;
    Array.unsafe_set t.q_fill l (fill + 1);
    if l < t.q_lo then t.q_lo <- l;
    if l > t.q_hi then t.q_hi <- l
  end

let enqueue_fanouts t id =
  for k = Array.unsafe_get t.fo_off id to Array.unsafe_get t.fo_off (id + 1) - 1
  do
    enqueue t (Array.unsafe_get t.fo_tgt k)
  done

(* Start fault [d]: both machines at the all-X image, the fault forced
   and the gates it can change queued, and the gates of its fanout
   cone (the only ones that can see an error on a fanin) listed in
   ascending id order. *)
let start t d =
  Bytes.blit t.all_x 0 t.gf 0 t.n;
  let root =
    if d.stem >= 0 then begin
      set t.gf d.stem (good_rail (get t.gf d.stem) lor d.forced);
      enqueue_fanouts t d.stem;
      d.stem
    end
    else begin
      enqueue t d.gate;
      d.gate
    end
  in
  t.cone_epoch <- t.cone_epoch + 1;
  t.cone_len <- 0;
  Array.unsafe_set t.in_cone root t.cone_epoch;
  let last = ref root and id = ref root in
  while !id <= !last do
    let g = !id in
    if Array.unsafe_get t.in_cone g = t.cone_epoch then begin
      if g >= t.ni then begin
        Array.unsafe_set t.cone t.cone_len g;
        t.cone_len <- t.cone_len + 1
      end;
      for k = Array.unsafe_get t.fo_off g to Array.unsafe_get t.fo_off (g + 1) - 1
      do
        let y = Array.unsafe_get t.fo_tgt k in
        Array.unsafe_set t.in_cone y t.cone_epoch;
        if y > !last then last := y
      done
    end;
    incr id
  done

(* Set node [id]'s byte to [b], logging the old one so a backtrack
   can restore it.  The log only grows past its capacity when a search
   changes more bytes than any before it on this context. *)
let change t id b =
  if t.log_len = Array.length t.log then begin
    let bigger = Array.make (2 * t.log_len + 16) 0 in
    Array.blit t.log 0 bigger 0 t.log_len;
    t.log <- bigger
  end;
  Array.unsafe_set t.log t.log_len ((id lsl 4) lor get t.gf id);
  t.log_len <- t.log_len + 1;
  set t.gf id b

(* Restore every byte logged since [mark], newest first. *)
let undo t mark =
  for k = t.log_len - 1 downto mark do
    let e = Array.unsafe_get t.log k in
    set t.gf (e lsr 4) (e land 0b1111)
  done;
  t.log_len <- mark

(* Event-driven two-rail implication after input [pi] changed ([-1]:
   none, only the gates {!start} queued): the input queues its fanouts,
   and the queue drains level by level, a gate queueing its fanouts
   only when its byte — good or faulty machine — changes.  The stuck
   stem's faulty rail stays forced, and the reading gate of a pin
   fault reads its faulty pin's faulty rail forced.  Evaluation reads
   only fanin values, so every node ends equal to {!imply_full}.
   Every byte changed is logged. *)
let imply t d pi =
  if pi >= 0 then begin
    let b = both (get t.assignment pi) in
    let b = if pi = d.stem then good_rail b lor d.forced else b in
    if b <> get t.gf pi then begin
      change t pi b;
      enqueue_fanouts t pi
    end
  end;
  let l = ref t.q_lo in
  while !l <= t.q_hi do
    let base = Array.unsafe_get t.q_base (!l - 1) in
    for k = base to base + Array.unsafe_get t.q_fill !l - 1 do
      let id = Array.unsafe_get t.queue k in
      let pin = if id = d.gate then d.pin else -1 in
      let b = eval2 t id ~pin ~forced:d.forced in
      let b = if id = d.stem then good_rail b lor d.forced else b in
      if b <> get t.gf id then begin
        change t id b;
        enqueue_fanouts t id
      end
    done;
    Array.unsafe_set t.q_fill !l 0;
    incr l
  done;
  t.q_lo <- max_int;
  t.q_hi <- 0;
  t.q_epoch <- t.q_epoch + 1

(* Some machine's rail is X. *)
let[@inline] combined_x t id =
  let b = get t.gf id in
  b land (b lsr 1) land 0b0101 <> 0

(* Both rails binary and different: one reads 0b01, the other 0b10. *)
let[@inline] error_at t id =
  let b = get t.gf id in
  good_rail (b lxor faulty_rail b) = 0b11

let[@inline] good_x t id = good_rail (get t.gf id) = rx

let error_at_output t =
  let found = ref false and o = ref 0 in
  while (not !found) && !o < Array.length t.outputs do
    found := error_at t (Array.unsafe_get t.outputs !o);
    incr o
  done;
  !found

let has_error_fanin t id =
  let e = Array.unsafe_get t.fi_off (id + 1) in
  let k = ref (Array.unsafe_get t.fi_off id) in
  while !k < e && not (error_at t (Array.unsafe_get t.fi_tgt !k)) do
    incr k
  done;
  !k < e

(* Is there a forward path of combined-X nets from [id] to a primary
   output?  Iterative DFS over CSR fanouts; the marks persist for the
   whole epoch, so nets explored from an earlier frontier gate (which
   reached no output) are not walked again. *)
let x_path t id =
  let top = ref 0 and found = ref false in
  if Array.unsafe_get t.visited id <> t.epoch then begin
    Array.unsafe_set t.visited id t.epoch;
    Array.unsafe_set t.dfs 0 id;
    top := 1
  end;
  while (not !found) && !top > 0 do
    decr top;
    let x = Array.unsafe_get t.dfs !top in
    if combined_x t x then
      if Bytes.unsafe_get t.is_output x <> '\000' then found := true
      else
        for k = Array.unsafe_get t.fo_off x to Array.unsafe_get t.fo_off (x + 1) - 1
        do
          let y = Array.unsafe_get t.fo_tgt k in
          if Array.unsafe_get t.visited y <> t.epoch then begin
            Array.unsafe_set t.visited y t.epoch;
            Array.unsafe_set t.dfs !top y;
            incr top
          end
        done
  done;
  !found

(* Objectives and backtrace results are encoded [net lsl 1 lor value];
   [-1] means none. *)

(* One scan of the D-frontier (gates with a combined-X output and an
   error on some input, plus the excited faulty gate of a pin fault)
   over the fault's fanout cone in id order — no gate outside the cone
   can see an error: the objective is the first frontier gate's first
   X input, set to the gate's non-controlling value (either value for
   parity gates) — provided some frontier gate has an X-path to an
   output.  [-1] when the frontier is empty, has no X-path, or offers
   no X input. *)
let frontier_objective t d =
  t.epoch <- t.epoch + 1;
  let pick = ref (-1) and path = ref false in
  let i = ref 0 in
  while (!pick < 0 || not !path) && !i < t.cone_len do
    let g = Array.unsafe_get t.cone !i in
    if combined_x t g && (g = d.gate || has_error_fanin t g) then begin
      if !pick < 0 then begin
        let e = Array.unsafe_get t.fi_off (g + 1) in
        let k = ref (Array.unsafe_get t.fi_off g) in
        while !k < e && not (good_x t (Array.unsafe_get t.fi_tgt !k)) do
          incr k
        done;
        if !k < e then begin
          let code = Char.code (Bytes.unsafe_get t.kinds g) in
          let v = if code = or_ || code = nor then 0 else 1 in
          pick := (Array.unsafe_get t.fi_tgt !k lsl 1) lor v
        end
      end;
      if not !path then path := x_path t g
    end;
    incr i
  done;
  if !path then !pick else -1

(* Backtrace an objective to an unassigned primary input, choosing at
   each gate the first X input strictly cheapest to set toward the
   wanted value (SCOAP-guided) and flipping that value through
   inversions. *)
let backtrace t objective =
  let id = ref (objective lsr 1) and value = ref (objective land 1) in
  let result = ref (-2) in
  while !result = -2 do
    let g = !id in
    if g < t.ni then
      result := if good_x t g then (g lsl 1) lor !value else -1
    else begin
      let code = Char.code (Bytes.unsafe_get t.kinds g) in
      if code = nand || code = nor || code = not_ || code = xnor then
        value := 1 - !value;
      let cost = if !value = 1 then t.cc1 else t.cc0 in
      let best = ref (-1) and best_cost = ref max_int in
      for k = Array.unsafe_get t.fi_off g to Array.unsafe_get t.fi_off (g + 1) - 1
      do
        let src = Array.unsafe_get t.fi_tgt k in
        if good_x t src && Array.unsafe_get cost src < !best_cost then begin
          best := src;
          best_cost := Array.unsafe_get cost src
        end
      done;
      if !best < 0 then result := -1 else id := !best
    end
  done;
  !result

(* The search, calling [after_imply d] after every implication.  Each
   decision marks the log before its implication; a flip restores the
   flipped decision's mark — the implication of the decisions before
   it — and implies only the flipped input, so no gate is re-evaluated
   to rebuild values the search already had. *)
let search ~max_backtracks ~after_imply t fault =
  let d = decode t fault in
  Bytes.fill t.assignment 0 t.ni (Char.chr vx);
  start t d;
  t.log_len <- 0;
  let depth = ref 0 and backtracks = ref 0 and changed = ref (-1) in
  let outcome = ref None in
  (* Drop exhausted decisions and flip the newest open one. *)
  let backtrack () =
    incr backtracks;
    if !backtracks > max_backtracks then outcome := Some Aborted
    else begin
      while !depth > 0 && Bytes.get t.flipped (!depth - 1) <> '\000' do
        decr depth;
        set t.assignment t.decisions.(!depth) vx
      done;
      if !depth = 0 then outcome := Some Untestable
      else begin
        let pi = t.decisions.(!depth - 1) in
        undo t t.marks.(!depth - 1);
        set t.assignment pi (1 - get t.assignment pi);
        Bytes.set t.flipped (!depth - 1) '\001';
        changed := pi
      end
    end
  in
  while Option.is_none !outcome do
    imply t d !changed;
    after_imply d;
    if error_at_output t then
      outcome :=
        Some
          (Test
             (Array.init t.ni (fun i ->
                  let v = get t.assignment i in
                  if v = vx then None else Some (v = v1))))
    else begin
      (* "excited": the site carries the activating good value (for a
         stem fault the site itself then carries the error; for a pin
         fault the error is born in the reading gate) *)
      let g = good_rail (get t.gf d.site) in
      let objective =
        if g = rx then (d.site lsl 1) lor d.site_value
        else if g <> d.site_value + 1 then -1
        else frontier_objective t d
      in
      let decision = if objective < 0 then -1 else backtrace t objective in
      if decision < 0 then backtrack ()
      else begin
        let pi = decision lsr 1 in
        set t.assignment pi (decision land 1);
        t.decisions.(!depth) <- pi;
        t.marks.(!depth) <- t.log_len;
        Bytes.set t.flipped !depth '\000';
        incr depth;
        changed := pi
      end
    end
  done;
  Option.get !outcome

let generate ?(max_backtracks = 2000) t fault =
  search ~max_backtracks ~after_imply:ignore t fault

let generate_checked ?(max_backtracks = 2000) t fault =
  let good = Bytes.create t.n and faulty = Bytes.create t.n in
  let step = ref 0 and mismatch = ref None in
  let fast_good id = good_rail (get t.gf id) - 1
  and fast_faulty id = faulty_rail (get t.gf id) - 1 in
  let after_imply d =
    if Option.is_none !mismatch then begin
      imply_full t d ~good ~faulty;
      let id = ref 0 in
      while
        !id < t.n
        && get good !id = fast_good !id
        && get faulty !id = fast_faulty !id
      do
        incr id
      done;
      if !id < t.n then
        mismatch :=
          Some
            (Printf.sprintf
               "implication %d, node %d: good %d (full %d), faulty %d (full \
                %d)"
               !step !id (fast_good !id) (get good !id) (fast_faulty !id)
               (get faulty !id))
    end;
    incr step
  in
  let r = search ~max_backtracks ~after_imply t fault in
  match !mismatch with None -> Ok r | Some m -> Error m

let concretize ~rng cube =
  Array.map (function Some v -> v | None -> Rng.bool rng) cube
