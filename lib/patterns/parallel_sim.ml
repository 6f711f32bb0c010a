module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
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
  words : ba; (* block-major: block b, input i at b * n_inputs + i *)
  masks : int64 array; (* block -> bits backed by real vectors *)
}

let pack_all vectors =
  let n = Array.length vectors in
  let n_blocks = (n + 63) / 64 in
  let n_inputs = if n = 0 then 0 else Array.length vectors.(0) in
  let words = ba_create (n_blocks * n_inputs) in
  Array.iteri
    (fun k v ->
      if Array.length v <> n_inputs then
        invalid_arg "Parallel_sim.pack_all: inconsistent vector widths";
      let base = k / 64 * n_inputs and bit = Int64.shift_left 1L (k mod 64) in
      Array.iteri
        (fun i x ->
          if x then
            Bigarray.Array1.unsafe_set words (base + i)
              (Int64.logor (Bigarray.Array1.unsafe_get words (base + i)) bit))
        v)
    vectors;
  {
    n_vectors = n;
    n_inputs;
    words;
    masks = Array.init n_blocks (fun b -> active_mask vectors ~start:(b * 64));
  }

let n_vectors p = p.n_vectors
let num_blocks p = Array.length p.masks
let block_mask p b = p.masks.(b)

(* ------------------------------------------------------------------ *)
(* Flat striped levelized evaluation (hot path)                        *)
(* ------------------------------------------------------------------ *)

(* Row-major striping: the value matrix holds [stride] consecutive
   block words per row, node [id] in row [rows.(id)]
   ([dst.(rows.(id) * stride + blk)]), and one gate
   visit evaluates [width] consecutive blocks.  One CSR traversal —
   dispatch byte, fanin indices, bounds — is amortized over [width]
   words, and every fanin read is a contiguous [width]-word run: at
   width 8 exactly one 64-byte cache line, fully used, where a
   width-1 stripe uses 8 bytes per line touched.  The loops are fused
   loads / [Int64] intrinsics / stores in single expressions: on the
   non-flambda compiler that is what keeps every intermediate word
   unboxed, so an evaluation costs zero minor words. *)

(* Row maps: the kernel stores node [id]'s words in matrix row
   [rows.(id)].  The identity map gives every node its own row; the
   live map recycles the row of a node whose last reader has been
   evaluated, so the matrix holds only the nodes live across one level
   boundary (plus the kept ones). *)

type row_map = { rows : int array; n_rows : int }

let all_rows c =
  let n = Circuit.num_nodes c in
  { rows = Array.init n Fun.id; n_rows = n }

(* Two linear passes over the level order.  Pass 1 records, for every
   node, the level of its last reader ([-1]: none): levels ascend, so
   the last value written is the maximum.  Pass 2 hands each level's
   gates rows off a free stack, then puts back the rows whose last
   reader sits at that level, and those of gates nobody reads.  A row
   freed after level [l] is handed out only at a level above [l], and
   every driver below finishes a level (per stripe, or behind a pool
   barrier) before starting the next, so no reader sees its row
   overwritten.  Kept nodes are marked [max_int], a level no reader
   reaches: their rows are never put back.  Inputs hold rows
   [0 .. ni-1].

   The put-back loop is branch-free: it stores every visited fanin's
   row at the top of the stack and advances the top only on a last
   read, which also marks the node [-2] so a second read at the same
   level does not put it back twice.  Whether a read is the last one
   is data-dependent, and a branch on it mispredicts often enough to
   double the pass.  The speculative store stays in bounds: a level's
   gates hold rows while the loop runs, so fewer than [n_rows] rows are
   free, and the stack is grown to [n_rows] after every level's
   hand-out. *)
let live_rows c ~keep =
  let n = Circuit.num_nodes c and ni = Circuit.num_inputs c in
  let order = Circuit.Csr.level_order c in
  let level_offsets = Circuit.Csr.level_offsets c in
  let levels = Circuit.Csr.levels c in
  let offsets = Circuit.Csr.fanin_offsets c in
  let targets = Circuit.Csr.fanin_targets c in
  let last = Array.make n (-1) in
  for j = 0 to Array.length order - 1 do
    let g = Array.unsafe_get order j in
    let l = Array.unsafe_get levels g in
    for k = Array.unsafe_get offsets g to Array.unsafe_get offsets (g + 1) - 1 do
      Array.unsafe_set last (Array.unsafe_get targets k) l
    done
  done;
  Array.iter
    (fun id ->
      if id < 0 || id >= n then invalid_arg "Parallel_sim.live_rows: bad keep id";
      last.(id) <- max_int)
    keep;
  let rows = Array.make n 0 in
  for i = 0 to ni - 1 do
    rows.(i) <- i
  done;
  let n_rows = ref ni in
  let free = ref [||] and top = ref 0 in
  for l = 1 to Array.length level_offsets - 1 do
    let lo = level_offsets.(l - 1) and hi = level_offsets.(l) in
    for j = lo to hi - 1 do
      let g = Array.unsafe_get order j in
      if !top > 0 then begin
        decr top;
        Array.unsafe_set rows g (Array.unsafe_get !free !top)
      end
      else begin
        Array.unsafe_set rows g !n_rows;
        incr n_rows
      end
    done;
    if Array.length !free < !n_rows then begin
      let bigger = Array.make (Stdlib.max !n_rows (2 * Array.length !free)) 0 in
      Array.blit !free 0 bigger 0 !top;
      free := bigger
    end;
    let free = !free in
    for j = lo to hi - 1 do
      let g = Array.unsafe_get order j in
      for k = Array.unsafe_get offsets g to Array.unsafe_get offsets (g + 1) - 1
      do
        let f = Array.unsafe_get targets k in
        let lf = Array.unsafe_get last f in
        let put = Bool.to_int (lf = l) in
        Array.unsafe_set last f (lf - (put * (lf + 2)));
        Array.unsafe_set free !top (Array.unsafe_get rows f);
        top := !top + put
      done;
      Array.unsafe_set free !top (Array.unsafe_get rows g);
      top := !top + Bool.to_int (Array.unsafe_get last g = -1)
    done
  done;
  { rows; n_rows = !n_rows }

let seed_inputs_striped c p ~rows ~block0 ~width ~stride ~(dst : ba) =
  let ni = Circuit.num_inputs c in
  if p.n_inputs <> ni then
    invalid_arg "Parallel_sim.seed_inputs_striped: input word count mismatch";
  let nb = num_blocks p in
  if block0 < 0 || width < 0 || block0 + width > nb then
    invalid_arg "Parallel_sim.seed_inputs_striped: bad block range";
  if stride < block0 + width then
    invalid_arg "Parallel_sim.seed_inputs_striped: stride below block range";
  if Array.length rows.rows <> Circuit.num_nodes c then
    invalid_arg "Parallel_sim.seed_inputs_striped: row map of another circuit";
  if rows.n_rows * stride > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.seed_inputs_striped: destination too small";
  let words = p.words in
  (* packed words are block-major (block b, input i at b*ni + i);
     transpose the stripe into matrix rows — input [i] holds row [i]
     under every map *)
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
let eval_order_range_striped c ~rows ~order ~lo ~hi ~block0 ~width ~stride
    ~(dst : ba) =
  if lo < 0 || hi > Array.length order || lo > hi then
    invalid_arg "Parallel_sim.eval_order_range_striped: bad order range";
  if block0 < 0 || width < 0 || stride < block0 + width then
    invalid_arg "Parallel_sim.eval_order_range_striped: bad stripe";
  if Array.length rows.rows <> Circuit.num_nodes c then
    invalid_arg
      "Parallel_sim.eval_order_range_striped: row map of another circuit";
  if rows.n_rows * stride > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.eval_order_range_striped: destination too small";
  let rows = rows.rows in
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
    let row = (Array.unsafe_get rows id * stride) + block0 in
    let f0 =
      (Array.unsafe_get rows (Array.unsafe_get targets s) * stride) + block0
    in
    (match code with
    | 0 | 1 ->
      (* And / Nand *)
      for w = 0 to width - 1 do
        Bigarray.Array1.unsafe_set dst (row + w)
          (Bigarray.Array1.unsafe_get dst (f0 + w))
      done;
      for k = s + 1 to e - 1 do
        let fk =
          (Array.unsafe_get rows (Array.unsafe_get targets k) * stride) + block0
        in
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
        let fk =
          (Array.unsafe_get rows (Array.unsafe_get targets k) * stride) + block0
        in
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
        let fk =
          (Array.unsafe_get rows (Array.unsafe_get targets k) * stride) + block0
        in
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

let eval_stripe_into c p ~rows ~block0 ~width ~stride ~(dst : ba) =
  seed_inputs_striped c p ~rows ~block0 ~width ~stride ~dst;
  let order = Circuit.Csr.level_order c in
  eval_order_range_striped c ~rows ~order ~lo:0 ~hi:(Array.length order)
    ~block0 ~width ~stride ~dst

(* Words evaluated per gate visit unless overridden: one cache line. *)
let default_stripe = 8

(* Below this many gates a level is evaluated inline by the caller:
   publishing a pool job (mutex + broadcast + atomic claims) costs on
   the order of a few microseconds, which only pays for itself once a
   level carries roughly a thousand gate visits of real work. *)
let min_split_width = 1024

let eval_all_into ?pool ?(stripe = default_stripe) c p ~rows ~(dst : ba) =
  if stripe < 1 then invalid_arg "Parallel_sim.eval_all_into: bad stripe";
  let nb = num_blocks p in
  if rows.n_rows * nb > Bigarray.Array1.dim dst then
    invalid_arg "Parallel_sim.eval_all_into: destination too small";
  if nb = 0 then ()
  else begin
    let w = Stdlib.min stripe nb in
    let stripes = (nb + w - 1) / w in
    let eval_stripe s =
      let block0 = s * w in
      let width = Stdlib.min w (nb - block0) in
      eval_stripe_into c p ~rows ~block0 ~width ~stride:nb ~dst
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
      let order = Circuit.Csr.level_order c in
      let offsets = Circuit.Csr.level_offsets c in
      for s = 0 to stripes - 1 do
        let block0 = s * w in
        let width = Stdlib.min w (nb - block0) in
        seed_inputs_striped c p ~rows ~block0 ~width ~stride:nb ~dst;
        for l = 1 to Circuit.depth c do
          let lo = offsets.(l - 1) and hi = offsets.(l) in
          let lw = hi - lo in
          if lw < min_split_width then
            eval_order_range_striped c ~rows ~order ~lo ~hi ~block0 ~width
              ~stride:nb ~dst
          else begin
            let per = (lw + psize - 1) / psize in
            ignore
              (Domain_pool.run pool ~chunks:psize (fun k ->
                   let clo = lo + (k * per) in
                   let chi = Stdlib.min hi (clo + per) in
                   if clo < chi then
                     eval_order_range_striped c ~rows ~order ~lo:clo ~hi:chi
                       ~block0 ~width ~stride:nb ~dst))
          end
        done
      done
  end
