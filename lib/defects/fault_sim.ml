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

(* Good-machine words for every block in one flat GC-opaque buffer,
   {e node-major}: node [id]'s word for block [b] at
   [id * num_blocks + b].  The striped levelized kernel fills it [W]
   consecutive blocks per gate visit; the layout also makes every
   fault sweep below a contiguous per-row scan.  Stripes (and level
   slices) write disjoint regions — the shared buffer is each
   domain's scratch. *)
let good_values ?metrics ~pool c packed =
  let nb = P.num_blocks packed in
  let goods : P.ba =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
      (nb * Circuit.num_nodes c)
  in
  P.eval_all_into ~pool c packed ~dst:goods;
  Option.iter
    (fun m -> Metrics.record_fault_sim m ~blocks:nb ~fault_blocks:0 ~dropped:0)
    metrics;
  goods

(* One fault's activation word for block [b], phrased so every load,
   [Int64] op and store fuses into a single expression — the fault
   sweep allocates nothing on the minor heap.  The good machine is
   node-major, so each sweep reads one or two contiguous [nb]-word
   rows.  [mask] is the block's active mask, which also maintains the
   rows' tail-bit invariant. *)

let sweep_bridge_row row goods ~nb ~masks ~a ~b =
  for blk = 0 to nb - 1 do
    Bigarray.Array1.unsafe_set row blk
      (Int64.logand
         (Int64.logxor
            (Bigarray.Array1.unsafe_get goods ((a * nb) + blk))
            (Bigarray.Array1.unsafe_get goods ((b * nb) + blk)))
         (Array.unsafe_get masks blk))
  done

let sweep_gos_row row goods ~nb ~masks ~id ~polarity =
  if polarity then
    for blk = 0 to nb - 1 do
      Bigarray.Array1.unsafe_set row blk
        (Int64.logand
           (Bigarray.Array1.unsafe_get goods ((id * nb) + blk))
           (Array.unsafe_get masks blk))
    done
  else
    for blk = 0 to nb - 1 do
      Bigarray.Array1.unsafe_set row blk
        (Int64.logand
           (Int64.lognot (Bigarray.Array1.unsafe_get goods ((id * nb) + blk)))
           (Array.unsafe_get masks blk))
    done

let sweep_floating_row row ~nb ~masks =
  for blk = 0 to nb - 1 do
    Bigarray.Array1.unsafe_set row blk (Array.unsafe_get masks blk)
  done

(* Faults are scheduled as round-robin chunks over the pool rather
   than fixed per-domain ranges: fault dropping (and the measurable
   filter) makes per-fault cost wildly uneven, and a domain whose
   static range emptied early would idle.  Chunks small enough to
   rebalance, large enough that one atomic claim amortizes. *)
let fault_chunk = 64

let run_fault_chunks pool nf f =
  Domain_pool.run pool ~chunks:((nf + fault_chunk - 1) / fault_chunk)
    (fun ch ->
      let lo = ch * fault_chunk in
      f lo (Stdlib.min nf (lo + fault_chunk)))

(* Full matrix: every measurable fault visits every block (no
   dropping — callers want the complete detection sets).  Writes are
   disjoint per fault, so the fault chunks need no synchronization. *)
let detection_matrix_with ?(domains = 1) ?metrics c ~measurable ~vectors
    ~faults =
  Domain_pool.with_pool ~domains @@ fun pool ->
  let packed = P.pack_all vectors in
  let goods = good_values ?metrics ~pool c packed in
  let faults = Array.of_list faults in
  let nf = Array.length faults in
  let nb = P.num_blocks packed in
  let nv = P.n_vectors packed in
  let masks = Array.init nb (fun b -> P.block_mask packed b) in
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
            | Fault.Bridge (a, b) -> sweep_bridge_row row goods ~nb ~masks ~a ~b
            | Fault.Gate_oxide_short (id, polarity) ->
              sweep_gos_row row goods ~nb ~masks ~id ~polarity
            | Fault.Floating_gate _ -> sweep_floating_row row ~nb ~masks);
            fb := !fb + nb
          end
        done;
        ignore (Atomic.fetch_and_add fault_blocks !fb))
  in
  Option.iter
    (fun m ->
      Metrics.record_fault_sim ~steals m ~blocks:0
        ~fault_blocks:(Atomic.get fault_blocks) ~dropped:0)
    metrics;
  { n_vectors = nv; rows }

(* First detections only: fault dropping — a detected fault never
   touches another block.  The activation word is recomputed once more
   on the (rare) detecting block so the scan itself stays unboxed. *)
let first_detections_with ?(domains = 1) ?metrics c ~measurable ~vectors
    ~faults =
  Domain_pool.with_pool ~domains @@ fun pool ->
  let packed = P.pack_all vectors in
  let goods = good_values ?metrics ~pool c packed in
  let faults = Array.of_list faults in
  let nf = Array.length faults in
  let nb = P.num_blocks packed in
  let masks = Array.init nb (fun b -> P.block_mask packed b) in
  let act_word blk (fault : Fault.t) =
    match fault with
    | Fault.Bridge (a, b) ->
      Int64.logand
        (Int64.logxor
           (Bigarray.Array1.unsafe_get goods ((a * nb) + blk))
           (Bigarray.Array1.unsafe_get goods ((b * nb) + blk)))
        (Array.unsafe_get masks blk)
    | Fault.Gate_oxide_short (id, polarity) ->
      if polarity then
        Int64.logand
          (Bigarray.Array1.unsafe_get goods ((id * nb) + blk))
          (Array.unsafe_get masks blk)
      else
        Int64.logand
          (Int64.lognot (Bigarray.Array1.unsafe_get goods ((id * nb) + blk)))
          (Array.unsafe_get masks blk)
    | Fault.Floating_gate _ -> Array.unsafe_get masks blk
  in
  let first = Array.make nf (-1) in
  let fault_blocks = Atomic.make 0 and dropped = Atomic.make 0 in
  let steals =
    run_fault_chunks pool nf (fun lo hi ->
        let fb = ref 0 and dr = ref 0 in
        for f = lo to hi - 1 do
          let inj = faults.(f) in
          if measurable inj then begin
            let rec scan b =
              if b < nb then begin
                incr fb;
                if act_word b inj.Fault.fault <> 0L then begin
                  first.(f) <-
                    (b * 64) + Bitvec.ctz64 (act_word b inj.Fault.fault);
                  incr dr
                end
                else scan (b + 1)
              end
            in
            scan 0
          end
        done;
        ignore (Atomic.fetch_and_add fault_blocks !fb);
        ignore (Atomic.fetch_and_add dropped !dr))
  in
  Option.iter
    (fun m ->
      Metrics.record_fault_sim ~steals m ~blocks:0
        ~fault_blocks:(Atomic.get fault_blocks) ~dropped:(Atomic.get dropped))
    metrics;
  first

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

let first_detections ?domains ?metrics p ~vectors ~faults =
  first_detections_with ?domains ?metrics (circuit_of p)
    ~measurable:(measurable p) ~vectors ~faults
