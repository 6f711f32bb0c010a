module Circuit = Iddq_netlist.Circuit
module Charac = Iddq_analysis.Charac
module Logic_sim = Iddq_patterns.Logic_sim
module P = Iddq_patterns.Parallel_sim
module Partition = Iddq_core.Partition
module Bitvec = Iddq_util.Bitvec
module Metrics = Iddq_util.Metrics
module Domain_pool = Iddq_util.Domain_pool

type matrix = { n_vectors : int; rows : Bitvec.t array }

let equal a b =
  a.n_vectors = b.n_vectors
  && Array.length a.rows = Array.length b.rows
  && Array.for_all2 Bitvec.equal a.rows b.rows

let measurable p (inj : Fault.injected) =
  let ch = Partition.charac p in
  let c = Charac.circuit ch in
  let m = Partition.module_of_gate p (Fault.location c inj.Fault.fault) in
  Iddq_bic.Detection.strobe (Charac.technology ch)
    ~measured_current:(Partition.leakage p m +. inj.Fault.defect_current)
  = Iddq_bic.Detection.Fail

(* One fault's activation word for block [b], phrased so every load,
   [Int64] op and store fuses into a single expression — the fault
   sweep allocates nothing on the minor heap.  The good machine is
   row-major, so each sweep reads one or two contiguous [nb]-word
   rows, [ra]/[rb]/[r] being row numbers (not node ids).  [mask] is
   the block's active mask, which also maintains the rows' tail-bit
   invariant. *)

let sweep_bridge_row row goods ~nb ~masks ~ra ~rb =
  for blk = 0 to nb - 1 do
    Bigarray.Array1.unsafe_set row blk
      (Int64.logand
         (Int64.logxor
            (Bigarray.Array1.unsafe_get goods ((ra * nb) + blk))
            (Bigarray.Array1.unsafe_get goods ((rb * nb) + blk)))
         (Array.unsafe_get masks blk))
  done

let sweep_gos_row row goods ~nb ~masks ~r ~polarity =
  if polarity then
    for blk = 0 to nb - 1 do
      Bigarray.Array1.unsafe_set row blk
        (Int64.logand
           (Bigarray.Array1.unsafe_get goods ((r * nb) + blk))
           (Array.unsafe_get masks blk))
    done
  else
    for blk = 0 to nb - 1 do
      Bigarray.Array1.unsafe_set row blk
        (Int64.logand
           (Int64.lognot (Bigarray.Array1.unsafe_get goods ((r * nb) + blk)))
           (Array.unsafe_get masks blk))
    done

let sweep_floating_row row ~nb ~masks =
  for blk = 0 to nb - 1 do
    Bigarray.Array1.unsafe_set row blk (Array.unsafe_get masks blk)
  done

(* Faults are scheduled as round-robin chunks over the pool rather
   than fixed per-domain ranges: the measurable filter makes per-fault
   cost uneven, and a domain whose static range emptied early would
   idle.  Chunks small enough to rebalance, large enough that one
   atomic claim amortizes. *)
let fault_chunk = 64

let run_fault_chunks pool nf f =
  Domain_pool.run pool ~chunks:((nf + fault_chunk - 1) / fault_chunk)
    (fun ch ->
      let lo = ch * fault_chunk in
      f lo (Stdlib.min nf (lo + fault_chunk)))

(* The nodes an IDDQ sweep reads: both ends of a bridge, the site of a
   gate-oxide short.  A floating gate reads none. *)
let fault_sites faults =
  let sites = ref [] in
  Array.iter
    (fun (inj : Fault.injected) ->
      match inj.Fault.fault with
      | Fault.Bridge (a, b) -> sites := a :: b :: !sites
      | Fault.Gate_oxide_short (id, _) -> sites := id :: !sites
      | Fault.Floating_gate _ -> ())
    faults;
  Array.of_list !sites

(* Full matrix: every measurable fault visits every block.  The good
   machine's words for every block sit in one flat GC-opaque buffer,
   row-major (node [id]'s word for block [b] at [row_of.(id) * nb +
   b]), filled by the striped levelized kernel [W] consecutive blocks
   per gate visit, so every fault sweep is a contiguous per-row scan.
   The rows are live rows: only the fault sites keep their words to
   the end, every other node's row is recycled once its last reader is
   evaluated, so the buffer holds [n_rows] rows rather than one per
   node.  Writes are disjoint per fault, so the fault chunks need no
   synchronization. *)
let detection_matrix_with ?(domains = 1) ?metrics c ~measurable ~vectors
    ~faults =
  Domain_pool.with_pool ~domains @@ fun pool ->
  let packed = P.pack_all vectors in
  let faults = Array.of_list faults in
  let map = P.live_rows c ~keep:(fault_sites faults) in
  let nb = P.num_blocks packed in
  let goods : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (nb * map.P.n_rows)
  in
  P.eval_all_into ~pool c packed ~rows:map ~dst:goods;
  let row_of = map.P.rows in
  let nv = P.n_vectors packed in
  let masks = Array.init nb (P.block_mask packed) in
  let nf = Array.length faults in
  let rows = Array.init nf (fun _ -> Bitvec.create nv) in
  let fault_blocks = Atomic.make 0 in
  let steals =
    run_fault_chunks pool nf (fun lo hi ->
        let fb = ref 0 in
        for f = lo to hi - 1 do
          let inj = faults.(f) in
          if measurable inj then begin
            let row = Bitvec.unsafe_words rows.(f) in
            (match inj.Fault.fault with
            | Fault.Bridge (a, b) ->
              sweep_bridge_row row goods ~nb ~masks ~ra:row_of.(a)
                ~rb:row_of.(b)
            | Fault.Gate_oxide_short (id, polarity) ->
              sweep_gos_row row goods ~nb ~masks ~r:row_of.(id) ~polarity
            | Fault.Floating_gate _ -> sweep_floating_row row ~nb ~masks);
            fb := !fb + nb
          end
        done;
        ignore (Atomic.fetch_and_add fault_blocks !fb))
  in
  Option.iter
    (fun m ->
      Metrics.record_fault_sim ~steals m ~blocks:nb
        ~fault_blocks:(Atomic.get fault_blocks) ~dropped:0)
    metrics;
  { n_vectors = nv; rows }

(* The original vector-at-a-time path, verbatim semantics: one full
   logic simulation per vector, one activation query per (fault,
   vector).  The differential tests pin the packed engine to this. *)
let detection_matrix_scalar_with c ~measurable ~vectors ~faults =
  let evaluated = Array.map (Logic_sim.eval c) vectors in
  let nv = Array.length vectors in
  let row (inj : Fault.injected) =
    let row = Bitvec.create nv in
    if measurable inj then
      Array.iteri
        (fun v values ->
          if Fault.activated c inj.Fault.fault values then Bitvec.set row v)
        evaluated;
    row
  in
  { n_vectors = nv; rows = Array.of_list (List.map row faults) }

let circuit_of p = Charac.circuit (Partition.charac p)

let detection_matrix ?domains ?metrics p ~vectors ~faults =
  detection_matrix_with ?domains ?metrics (circuit_of p)
    ~measurable:(measurable p) ~vectors ~faults
