type kind = Count | Seconds | Peak

type counter = {
  index : int;
  name : string;
  kind : kind;
  legacy : string option;
      (* the key an older campaign store wrote this counter under *)
}

(* Declaration order is registry order: the order of [to_json] and
   [counters].  Only this module declares. *)
let declared = ref []

let declare ?legacy name kind =
  let c = { index = List.length !declared; name; kind; legacy } in
  declared := c :: !declared;
  c

(* cost evaluation *)
let full_evals = declare "full_evals" Count ~legacy:"full"
let delta_evals = declare "delta_evals" Count ~legacy:"delta"
let eval_cache_hits = declare "eval_cache_hits" Count ~legacy:"hits"
let moves = declare "moves" Count
let gates_full = declare "gates_full" Count
let gates_delta = declare "gates_delta" Count
let seconds_full = declare "seconds_full" Seconds ~legacy:"sec_full"
let seconds_delta = declare "seconds_delta" Seconds ~legacy:"sec_delta"

(* packed fault simulation *)
let sim_blocks = declare "sim_blocks" Count
let sim_fault_blocks = declare "sim_fault_blocks" Count
let sim_faults_dropped = declare "sim_faults_dropped" Count ~legacy:"sim_dropped"
let sim_steals = declare "sim_steals" Count

(* resident service *)
let requests = declare "requests" Count
let requests_failed = declare "requests_failed" Count
let seconds_requests = declare "seconds_requests" Seconds ~legacy:"sec_requests"
let cache_hits = declare "cache_hits" Count ~legacy:"srv_hits"
let cache_misses = declare "cache_misses" Count ~legacy:"srv_misses"
let cache_evictions = declare "cache_evictions" Count ~legacy:"srv_evictions"
let sheds = declare "sheds" Count ~legacy:"srv_sheds"
let queue_peak = declare "queue_peak" Peak ~legacy:"srv_queue_peak"
let wbuf_peak = declare "wbuf_peak" Peak ~legacy:"srv_wbuf_peak"

let registry = Array.of_list (List.rev !declared)
let counters = Array.to_list registry
let name c = c.name
let kind c = c.kind

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type t = int Atomic.t array

let create () = Array.map (fun _ -> Atomic.make 0) registry
let add (t : t) c n = ignore (Atomic.fetch_and_add t.(c.index) n)

(* lock-free max for the high-water marks *)
let peak (t : t) c x =
  let cell = t.(c.index) in
  let rec go () =
    let cur = Atomic.get cell in
    if x > cur && not (Atomic.compare_and_set cell cur x) then go ()
  in
  go ()

let ns_of_seconds s = Float.to_int (Float.round (s *. 1e9))

let record_full t ~gates ~seconds =
  add t full_evals 1;
  add t gates_full gates;
  add t seconds_full (ns_of_seconds seconds)

let record_delta t ~gates ~seconds =
  add t delta_evals 1;
  add t gates_delta gates;
  add t seconds_delta (ns_of_seconds seconds)

let record_fault_sim ?(steals = 0) t ~blocks ~fault_blocks ~dropped =
  add t sim_blocks blocks;
  add t sim_fault_blocks fault_blocks;
  add t sim_faults_dropped dropped;
  add t sim_steals steals

let record_request t ~ok ~seconds =
  add t requests 1;
  if not ok then add t requests_failed 1;
  add t seconds_requests (ns_of_seconds seconds)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = int array

let snapshot (t : t) : snapshot = Array.map Atomic.get t
let get (s : snapshot) c = s.(c.index)
let seconds s c = float_of_int (get s c) /. 1e9

let strip_timing s : snapshot =
  Array.map (fun c -> if c.kind = Seconds then 0 else get s c) registry

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let to_json s =
  Json.Obj
    (List.map
       (fun c ->
         ( c.name,
           match c.kind with
           | Count | Peak -> Json.Int (get s c)
           | Seconds -> Json.Float (seconds s c) ))
       counters)

(* a timing outside +-30 years is no timing this library recorded *)
let decode c v =
  match c.kind with
  | Count | Peak -> Json.to_int v
  | Seconds ->
    Option.bind (Json.to_float v) (fun x ->
        if Float.abs x < 1e9 then Some (ns_of_seconds x) else None)

let of_json j =
  let lookup c =
    match (Json.member c.name j, c.legacy) with
    | None, Some key -> Json.member key j
    | v, _ -> v
  in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | c :: rest -> (
      match lookup c with
      | None -> go (0 :: acc) rest (* absent means zero *)
      | Some v -> (
        match decode c v with
        | Some x -> go (x :: acc) rest
        | None -> Error (Printf.sprintf "metrics: bad counter %S" c.name)))
  in
  match j with
  | Json.Obj _ -> go [] counters
  | _ -> Error "metrics: not an object"

(* ------------------------------------------------------------------ *)
(* Derived measures                                                    *)
(* ------------------------------------------------------------------ *)

let evaluations s = get s full_evals + get s delta_evals + get s eval_cache_hits

let equivalent_evals s =
  let full = get s full_evals and delta = get s delta_evals in
  if full = 0 then float_of_int (full + delta)
  else begin
    let gates_per_full = float_of_int (get s gates_full) /. float_of_int full in
    if gates_per_full <= 0.0 then float_of_int (full + delta)
    else float_of_int full +. (float_of_int (get s gates_delta) /. gates_per_full)
  end
