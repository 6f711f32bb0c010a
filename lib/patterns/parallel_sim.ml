module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Level_schedule = Iddq_netlist.Level_schedule
module Domain_pool = Iddq_util.Domain_pool

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba_create n : ba =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let pack vectors ~start =
  let n = Array.length vectors in
  if start < 0 || start > n then invalid_arg "Parallel_sim.pack: bad start";
  (* [start = n] (in particular an empty vector set): a valid empty
     block.  The vector width — the word count — comes from any
     vector when one exists, and degenerates to 0 words otherwise. *)
  let width = if n = 0 then 0 else Array.length vectors.(0) in
  let count = Stdlib.min 64 (n - start) in
  Array.init width (fun i ->
      let word = ref 0L in
      for k = 0 to count - 1 do
        let v = vectors.(start + k) in
        if Array.length v <> width then
          invalid_arg "Parallel_sim.pack: inconsistent vector widths";
        if v.(i) then word := Int64.logor !word (Int64.shift_left 1L k)
      done;
      !word)

let active_mask vectors ~start =
  let n = Array.length vectors in
  if start < 0 || start > n then
    invalid_arg "Parallel_sim.active_mask: bad start";
  let count = Stdlib.min 64 (n - start) in
  if count = 64 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L count) 1L

type packed = {
  n_vectors : int;
  n_inputs : int; (* words per block *)
  blocks : int64 array array; (* block -> one word per circuit input *)
  words : ba; (* the same words flattened block-major: block b at b * n_inputs *)
  masks : int64 array; (* block -> bits backed by real vectors *)
}

let pack_all vectors =
  let n = Array.length vectors in
  let n_blocks = (n + 63) / 64 in
  let n_inputs = if n = 0 then 0 else Array.length vectors.(0) in
  let blocks = Array.init n_blocks (fun b -> pack vectors ~start:(b * 64)) in
  let words = ba_create (n_blocks * n_inputs) in
  Array.iteri
    (fun b block ->
      Array.iteri
        (fun i w -> Bigarray.Array1.unsafe_set words ((b * n_inputs) + i) w)
        block)
    blocks;
  {
    n_vectors = n;
    n_inputs;
    blocks;
    words;
    masks = Array.init n_blocks (fun b -> active_mask vectors ~start:(b * 64));
  }

let n_vectors p = p.n_vectors
let num_blocks p = Array.length p.blocks
let block p b = p.blocks.(b)
let block_mask p b = p.masks.(b)
let packed_words p = p.words

let eval_word kind words =
  (* An [And]/[Nand] fold over zero fanins would silently yield
     all-ones (and [Or]/[Nor] all-zeros): reject bad arities exactly
     like the scalar [Gate.eval]. *)
  if not (Gate.arity_ok kind (Array.length words)) then
    invalid_arg
      (Printf.sprintf "Parallel_sim.eval_word: %s with %d inputs"
         (Gate.to_string kind) (Array.length words));
  let fold f init = Array.fold_left f init words in
  match kind with
  | Gate.And -> fold Int64.logand Int64.minus_one
  | Gate.Nand -> Int64.lognot (fold Int64.logand Int64.minus_one)
  | Gate.Or -> fold Int64.logor 0L
  | Gate.Nor -> Int64.lognot (fold Int64.logor 0L)
  | Gate.Xor -> fold Int64.logxor 0L
  | Gate.Xnor -> Int64.lognot (fold Int64.logxor 0L)
  | Gate.Not -> Int64.lognot words.(0)
  | Gate.Buff -> words.(0)

(* ------------------------------------------------------------------ *)
(* Boxed evaluation (the kernels' test reference)                     *)
(* ------------------------------------------------------------------ *)

let eval c packed_inputs =
  if Array.length packed_inputs <> Circuit.num_inputs c then
    invalid_arg "Parallel_sim.eval: input word count mismatch";
  let values = Array.make (Circuit.num_nodes c) 0L in
  Array.blit packed_inputs 0 values 0 (Array.length packed_inputs);
  Circuit.iter_gates c (fun g kind fanins ->
      values.(Circuit.node_of_gate c g) <-
        eval_word kind (Array.map (fun src -> values.(src)) fanins));
  values

(* ------------------------------------------------------------------ *)
(* Flat striped levelized evaluation (hot path)                        *)
(* ------------------------------------------------------------------ *)

(* Node-major striping: the value matrix holds [stride] consecutive
   block words per node ([dst.(id * stride + blk)]), and one gate
   visit evaluates [width] consecutive blocks.  One CSR traversal —
   dispatch byte, fanin indices, bounds — is amortized over [width]
   words, and every fanin read is a contiguous [width]-word run: at
   width 8 exactly one 64-byte cache line, fully used, where a
   width-1 stripe uses 8 bytes per line touched.  The loops are fused
   loads / [Int64] intrinsics / stores in single expressions: on the
   non-flambda compiler that is what keeps every intermediate word
   unboxed, so an evaluation costs zero minor words. *)

let seed_inputs_striped c p ~block0 ~width ~stride ~(dst : ba) =
  let ni = Circuit.num_inputs c in
  if p.n_inputs <> ni then
    invalid_arg "Parallel_sim.seed_inputs_striped: input word count mismatch";
  let nb = Array.length p.blocks in
  if block0 < 0 || width < 0 || block0 + width > nb then
    invalid_arg "Parallel_sim.seed_inputs_striped: bad block range";
  if stride < block0 + width then
    invalid_arg "Parallel_sim.seed_inputs_striped: stride below block range";
  if Circuit.num_nodes c * stride > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.seed_inputs_striped: destination too small";
  let words = p.words in
  (* packed words are block-major (block b, input i at b*ni + i);
     transpose the stripe into node-major rows *)
  for i = 0 to ni - 1 do
    for w = 0 to width - 1 do
      Bigarray.Array1.unsafe_set dst ((i * stride) + block0 + w)
        (Bigarray.Array1.unsafe_get words (((block0 + w) * ni) + i))
    done
  done

(* The striped gate kernel over one contiguous slice of the level
   order.  The caller guarantees every fanin row of the slice is
   already computed for the same stripe: any [lo, hi) prefix-closed
   under levels qualifies, which is what the level barriers in
   [eval_all_into] provide.  Allocation-free (the schedule arrays come
   in as plain [int array]s; no closures, no boxed intermediates). *)
let eval_order_range_striped c ~order ~lo ~hi ~block0 ~width ~stride ~(dst : ba)
    =
  if lo < 0 || hi > Array.length order || lo > hi then
    invalid_arg "Parallel_sim.eval_order_range_striped: bad order range";
  if block0 < 0 || width < 0 || stride < block0 + width then
    invalid_arg "Parallel_sim.eval_order_range_striped: bad stripe";
  if Circuit.num_nodes c * stride > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.eval_order_range_striped: destination too small";
  let kinds = Circuit.Csr.kinds c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  for g = lo to hi - 1 do
    let id = Array.unsafe_get order g in
    let s = Array.unsafe_get offsets id in
    let e = Array.unsafe_get offsets (id + 1) in
    let code = Char.code (Bytes.unsafe_get kinds id) in
    if e <= s then
      invalid_arg "Parallel_sim.eval_order_range_striped: gate with no fanins";
    let row = (id * stride) + block0 in
    let f0 = (Array.unsafe_get targets s * stride) + block0 in
    (match code with
    | 0 | 1 ->
      (* And / Nand *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Bigarray.Array1.unsafe_get dst (f0 + w))
      done;
      for k = s + 1 to e - 1 do
        let fk = (Array.unsafe_get targets k * stride) + block0 in
        for w = 0 to width - 1 do
          Bigarray.Array1.unsafe_set dst (row + w)
            (Int64.logand
               (Bigarray.Array1.unsafe_get dst (row + w))
               (Bigarray.Array1.unsafe_get dst (fk + w)))
        done
      done
    | 2 | 3 ->
      (* Or / Nor *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Bigarray.Array1.unsafe_get dst (f0 + w))
      done;
      for k = s + 1 to e - 1 do
        let fk = (Array.unsafe_get targets k * stride) + block0 in
        for w = 0 to width - 1 do
          Bigarray.Array1.unsafe_set dst (row + w)
            (Int64.logor
               (Bigarray.Array1.unsafe_get dst (row + w))
               (Bigarray.Array1.unsafe_get dst (fk + w)))
        done
      done
    | 4 | 5 ->
      (* Xor / Xnor *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Bigarray.Array1.unsafe_get dst (f0 + w))
      done;
      for k = s + 1 to e - 1 do
        let fk = (Array.unsafe_get targets k * stride) + block0 in
        for w = 0 to width - 1 do
          Bigarray.Array1.unsafe_set dst (row + w)
            (Int64.logxor
               (Bigarray.Array1.unsafe_get dst (row + w))
               (Bigarray.Array1.unsafe_get dst (fk + w)))
        done
      done
    | 6 ->
      (* Not *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Int64.lognot (Bigarray.Array1.unsafe_get dst (f0 + w)))
      done
    | _ ->
      (* Buff *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Bigarray.Array1.unsafe_get dst (f0 + w))
      done);
    if code = 1 || code = 3 || code = 5 then
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Int64.lognot (Bigarray.Array1.unsafe_get dst (row + w)))
      done
  done

let eval_stripe_into c sched p ~block0 ~width ~stride ~(dst : ba) =
  seed_inputs_striped c p ~block0 ~width ~stride ~dst;
  let order = Level_schedule.order sched in
  eval_order_range_striped c ~order ~lo:0 ~hi:(Array.length order) ~block0
    ~width ~stride ~dst

(* Words evaluated per gate visit unless overridden: one cache line. *)
let default_stripe = 8

(* Below this many gates a level is evaluated inline by the caller:
   publishing a pool job (mutex + broadcast + atomic claims) costs on
   the order of a few microseconds, which only pays for itself once a
   level carries roughly a thousand gate visits of real work. *)
let min_split_width = 1024

let eval_all_into ?pool ?(stripe = default_stripe) c p ~(dst : ba) =
  if stripe < 1 then invalid_arg "Parallel_sim.eval_all_into: bad stripe";
  let nb = Array.length p.blocks in
  let n = Circuit.num_nodes c in
  if n * nb > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.eval_all_into: destination too small";
  if nb = 0 then ()
  else begin
    let sched = Level_schedule.of_circuit c in
    let w = Stdlib.min stripe nb in
    let stripes = (nb + w - 1) / w in
    let eval_stripe s =
      let block0 = s * w in
      let width = Stdlib.min w (nb - block0) in
      eval_stripe_into c sched p ~block0 ~width ~stride:nb ~dst
    in
    let psize = match pool with None -> 1 | Some t -> Domain_pool.size t in
    match pool with
    | None ->
      for s = 0 to stripes - 1 do
        eval_stripe s
      done
    | Some _ when psize <= 1 ->
      for s = 0 to stripes - 1 do
        eval_stripe s
      done
    | Some pool when stripes >= psize ->
      (* Whole stripes are the coarsest independent unit: each chunk
         seeds and evaluates disjoint columns, no barrier needed. *)
      ignore (Domain_pool.run pool ~chunks:stripes eval_stripe)
    | Some pool ->
      (* Fewer stripes than domains: split inside levels instead.  A
         [Domain_pool.run] per level is the barrier; narrow levels run
         inline on the caller to dodge the publish cost. *)
      let order = Level_schedule.order sched in
      let offsets = Level_schedule.offsets sched in
      for s = 0 to stripes - 1 do
        let block0 = s * w in
        let width = Stdlib.min w (nb - block0) in
        seed_inputs_striped c p ~block0 ~width ~stride:nb ~dst;
        for l = 1 to Level_schedule.num_levels sched do
          let lo = offsets.(l - 1) and hi = offsets.(l) in
          let lw = hi - lo in
          if lw < min_split_width then
            eval_order_range_striped c ~order ~lo ~hi ~block0 ~width ~stride:nb
              ~dst
          else begin
            let per = (lw + psize - 1) / psize in
            ignore
              (Domain_pool.run pool ~chunks:psize (fun k ->
                   let clo = lo + (k * per) in
                   let chi = Stdlib.min hi (clo + per) in
                   if clo < chi then
                     eval_order_range_striped c ~order ~lo:clo ~hi:chi ~block0
                       ~width ~stride:nb ~dst))
          end
        done
      done
  end
