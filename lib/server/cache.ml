module Metrics = Iddq_util.Metrics
module Rng = Iddq_util.Rng
module Circuit = Iddq_netlist.Circuit
module Bench_io = Iddq_netlist.Bench_io
module Charac = Iddq_analysis.Charac
module Atpg = Iddq_atpg.Atpg
module Pipeline = Iddq.Pipeline

(* Size-bounded table with least-recently-used eviction.  Recency is a
   global insertion/access tick per cell; eviction scans for the
   minimum tick — O(n) per eviction, and n is the (small) cap, so the
   scan is noise next to the cached computations (characterization,
   fault simulation).  Not domain-safe on its own: every use below sits
   under the cache's one lock. *)
module Lru = struct
  type ('k, 'v) t = {
    table : ('k, 'v * int ref) Hashtbl.t;
    mutable tick : int;
    cap : int;
  }

  let create cap = { table = Hashtbl.create 16; tick = 0; cap = max 1 cap }
  let length t = Hashtbl.length t.table

  let find_opt t k =
    match Hashtbl.find_opt t.table k with
    | None -> None
    | Some (v, cell) ->
      t.tick <- t.tick + 1;
      cell := t.tick;
      Some v

  (* Insert [k], evicting least-recently-used entries while at
     capacity.  Returns the number evicted (0 or 1 in practice). *)
  let insert t k v =
    let evicted = ref 0 in
    while Hashtbl.length t.table >= t.cap && not (Hashtbl.mem t.table k) do
      let victim =
        Hashtbl.fold
          (fun vk (_, cell) acc ->
            match acc with
            | Some (_, best) when best <= !cell -> acc
            | _ -> Some (vk, !cell))
          t.table None
      in
      match victim with
      | Some (vk, _) ->
        Hashtbl.remove t.table vk;
        incr evicted
      | None -> assert false (* at capacity >= 1 the table is non-empty *)
    done;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.table k (v, ref t.tick);
    !evicted
end

type t = {
  metrics : Metrics.t;
  library : Iddq_celllib.Library.t;
  lock : Mutex.t;
  circuits : (string, Circuit.t) Lru.t;
  characs : (string, Charac.t) Lru.t;
  vector_sets : (string * int * int, bool array array) Lru.t;
  partitions : (string, (Pipeline.t, Pipeline.error) result) Lru.t;
  diagnoses : (string, Iddq_diagnose.Diagnose.t) Lru.t;
  testsets : (string, (Atpg.set_result, Atpg.error) result) Lru.t;
}

let default_max_entries = 256

let create ~metrics ?(library = Iddq_celllib.Library.default)
    ?(max_entries = default_max_entries) () =
  {
    metrics;
    library;
    lock = Mutex.create ();
    circuits = Lru.create max_entries;
    characs = Lru.create max_entries;
    vector_sets = Lru.create max_entries;
    partitions = Lru.create max_entries;
    diagnoses = Lru.create max_entries;
    testsets = Lru.create max_entries;
  }

let handle_of_circuit c = Digest.to_hex (Digest.string (Bench_io.to_string c))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Look up under the lock, compute outside it, insert under it: a miss
   never holds up another request's lookups, however long it runs (an
   ATPG generation takes seconds on the larger circuits).  Two requests
   missing one key at once both compute; the values are equal (every
   computation is a function of its key), and the first one stored
   stays, so every caller gets the same physical value. *)
let memo t table key compute =
  match locked t (fun () -> Lru.find_opt table key) with
  | Some v ->
    Metrics.add t.metrics Metrics.cache_hits 1;
    v
  | None ->
    Metrics.add t.metrics Metrics.cache_misses 1;
    let v = compute () in
    locked t (fun () ->
        match Lru.find_opt table key with
        | Some first -> first
        | None ->
          Metrics.add t.metrics Metrics.cache_evictions (Lru.insert table key v);
          v)

let add_circuit t c =
  let handle = handle_of_circuit c in
  ignore (memo t t.circuits handle (fun () -> c));
  handle

let find_circuit t handle = locked t (fun () -> Lru.find_opt t.circuits handle)

let charac t ~handle c =
  memo t t.characs handle (fun () -> Charac.make ~library:t.library c)

let vectors t ~handle ~seed ~count c =
  memo t t.vector_sets (handle, seed, count) (fun () ->
      Iddq_patterns.Pattern_gen.random ~rng:(Rng.create seed) c ~count)

let partition t ~key compute = memo t t.partitions key compute
let diagnosis t ~key compute = memo t t.diagnoses key compute
let testset t ~key compute = memo t t.testsets key compute

type stats = {
  circuits : int;
  characs : int;
  vector_sets : int;
  partitions : int;
  diagnoses : int;
  testsets : int;
}

let stats t =
  locked t (fun () ->
      {
        circuits = Lru.length t.circuits;
        characs = Lru.length t.characs;
        vector_sets = Lru.length t.vector_sets;
        partitions = Lru.length t.partitions;
        diagnoses = Lru.length t.diagnoses;
        testsets = Lru.length t.testsets;
      })
