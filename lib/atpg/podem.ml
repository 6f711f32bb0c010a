module Circuit = Iddq_netlist.Circuit
module Scoap = Iddq_analysis.Scoap
module Stuck_at = Iddq_defects.Stuck_at
module Rng = Iddq_util.Rng

type result = Test of bool option array | Untestable | Aborted

(* Three-valued node values, one byte each. *)
let v0 = 0
let v1 = 1
let vx = 2

(* Kind codes ({!Iddq_netlist.Gate.code}). *)
let nand = 1
let or_ = 2
let nor = 3
let xnor = 5
let not_ = 6

type t = {
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
  assignment : Bytes.t; (* per primary input *)
  good : Bytes.t;
  faulty : Bytes.t;
  visited : int array; (* X-path DFS marks, one epoch per test *)
  mutable epoch : int;
  dfs : int array;
  decisions : int array; (* assigned primary inputs, oldest first *)
  flipped : Bytes.t; (* per decision: alternative already tried *)
}

let prepare c =
  let n = Circuit.num_nodes c and ni = Circuit.num_inputs c in
  let scoap = Scoap.compute c in
  let outputs = Circuit.outputs c in
  let is_output = Bytes.make n '\000' in
  Array.iter (fun id -> Bytes.set is_output id '\001') outputs;
  {
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
    good = Bytes.make n (Char.chr vx);
    faulty = Bytes.make n (Char.chr vx);
    visited = Array.make n 0;
    epoch = 0;
    dfs = Array.make n 0;
    decisions = Array.make ni 0;
    flipped = Bytes.make ni '\000';
  }

let[@inline] get b i = Char.code (Bytes.unsafe_get b i)
let[@inline] set b i v = Bytes.unsafe_set b i (Char.unsafe_chr v)
let[@inline] not3 v = if v = vx then vx else 1 - v

(* Gate [id] over the values in [vals], with fanin slot [pin] (a CSR
   index; [-1] for none) reading [pin_value] instead. *)
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

(* The fault, decoded once: the stuck stem ([stem], [-1] for a pin
   fault) or the faulty pin's CSR slot ([pin], [-1] for a stem fault)
   of reading gate [gate]; the activation objective is [site] carrying
   [site_value]. *)
type decoded = {
  stem : int;
  gate : int;
  pin : int;
  stuck : int;
  site : int;
  site_value : int;
}

let decode t fault =
  match fault with
  | Stuck_at.Stem (id, v) ->
    if id < 0 || id >= t.n then invalid_arg "Podem: stem fault out of range";
    let stuck = if v then v1 else v0 in
    { stem = id; gate = -1; pin = -1; stuck; site = id; site_value = 1 - stuck }
  | Stuck_at.Pin { gate; pin; value } ->
    if gate < 0 || gate >= t.n then invalid_arg "Podem: pin fault out of range";
    if gate < t.ni then invalid_arg "Podem: pin fault on an input node";
    let s = t.fi_off.(gate) in
    if pin < 0 || s + pin >= t.fi_off.(gate + 1) then
      invalid_arg "Podem: pin fault on a missing pin";
    let stuck = if value then v1 else v0 in
    {
      stem = -1;
      gate;
      pin = s + pin;
      stuck;
      site = t.fi_tgt.(s + pin);
      site_value = 1 - stuck;
    }

(* Good and faulty implication of the current assignment. *)
let imply t d =
  Bytes.blit t.assignment 0 t.good 0 t.ni;
  Bytes.blit t.assignment 0 t.faulty 0 t.ni;
  if d.stem >= 0 && d.stem < t.ni then set t.faulty d.stem d.stuck;
  for id = t.ni to t.n - 1 do
    set t.good id (eval3 t t.good id ~pin:(-1) ~pin_value:0);
    set t.faulty id
      (if id = d.stem then d.stuck
       else if id = d.gate then eval3 t t.faulty id ~pin:d.pin ~pin_value:d.stuck
       else eval3 t t.faulty id ~pin:(-1) ~pin_value:0)
  done

let[@inline] combined_x t id = get t.good id = vx || get t.faulty id = vx

let[@inline] error_at t id =
  let g = get t.good id and f = get t.faulty id in
  g <> vx && f <> vx && g <> f

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
   error on some input, plus the excited faulty gate of a pin fault),
   in id order: the objective is the first frontier gate's first X
   input, set to the gate's non-controlling value (either value for
   parity gates) — provided some frontier gate has an X-path to an
   output.  [-1] when the frontier is empty, has no X-path, or offers
   no X input. *)
let frontier_objective t d =
  t.epoch <- t.epoch + 1;
  let pick = ref (-1) and path = ref false in
  let id = ref t.ni in
  while (!pick < 0 || not !path) && !id < t.n do
    let g = !id in
    if combined_x t g && (g = d.gate || has_error_fanin t g) then begin
      if !pick < 0 then begin
        let e = Array.unsafe_get t.fi_off (g + 1) in
        let k = ref (Array.unsafe_get t.fi_off g) in
        while !k < e && get t.good (Array.unsafe_get t.fi_tgt !k) <> vx do
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
    incr id
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
      result := if get t.good g = vx then (g lsl 1) lor !value else -1
    else begin
      let code = Char.code (Bytes.unsafe_get t.kinds g) in
      if code = nand || code = nor || code = not_ || code = xnor then
        value := 1 - !value;
      let cost = if !value = 1 then t.cc1 else t.cc0 in
      let best = ref (-1) and best_cost = ref max_int in
      for k = Array.unsafe_get t.fi_off g to Array.unsafe_get t.fi_off (g + 1) - 1
      do
        let src = Array.unsafe_get t.fi_tgt k in
        if get t.good src = vx && Array.unsafe_get cost src < !best_cost then begin
          best := src;
          best_cost := Array.unsafe_get cost src
        end
      done;
      if !best < 0 then result := -1 else id := !best
    end
  done;
  !result

let generate ?(max_backtracks = 2000) t fault =
  let d = decode t fault in
  Bytes.fill t.assignment 0 t.ni (Char.chr vx);
  let depth = ref 0 and backtracks = ref 0 in
  let outcome = ref None in
  (* Undo exhausted decisions and flip the newest open one. *)
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
        set t.assignment pi (1 - get t.assignment pi);
        Bytes.set t.flipped (!depth - 1) '\001'
      end
    end
  in
  while Option.is_none !outcome do
    imply t d;
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
      let g = get t.good d.site in
      let objective =
        if g = vx then (d.site lsl 1) lor d.site_value
        else if g <> d.site_value then -1
        else frontier_objective t d
      in
      let decision = if objective < 0 then -1 else backtrace t objective in
      if decision < 0 then backtrack ()
      else begin
        let pi = decision lsr 1 in
        set t.assignment pi (decision land 1);
        t.decisions.(!depth) <- pi;
        Bytes.set t.flipped !depth '\000';
        incr depth
      end
    end
  done;
  Option.get !outcome

let concretize ~rng cube =
  Array.map (function Some v -> v | None -> Rng.bool rng) cube
