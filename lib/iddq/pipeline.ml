module Rng = Iddq_util.Rng
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Es = Iddq_evolution.Es
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Standard = Iddq_baseline.Standard
module Random_part = Iddq_baseline.Random_part
module Annealing = Iddq_baseline.Annealing
module Refine = Iddq_baseline.Refine

type method_ = Evolution | Standard | Random | Annealing | Refined_standard

let method_to_string = function
  | Evolution -> "evolution"
  | Standard -> "standard"
  | Random -> "random"
  | Annealing -> "annealing"
  | Refined_standard -> "refined-standard"

let method_of_string s =
  match String.lowercase_ascii s with
  | "evolution" | "es" -> Some Evolution
  | "standard" -> Some Standard
  | "random" -> Some Random
  | "annealing" | "sa" -> Some Annealing
  | "refined-standard" | "refined" -> Some Refined_standard
  | _ -> None

type t = {
  charac : Charac.t;
  partition : Partition.t;
  breakdown : Cost.breakdown;
  sensors : (int * Iddq_bic.Sensor.t) list;
  method_used : method_;
  generations : int;
}

type config = {
  library : Iddq_celllib.Library.t;
  weights : Cost.weights;
  es_params : Es.params;
  seed : int;
  module_size : int option;
  reference_sizes : int list option;
  metrics : Iddq_util.Metrics.t;
}

let default_config =
  {
    library = Iddq_celllib.Library.default;
    weights = Cost.paper_weights;
    es_params = Es.default_params;
    seed = 42;
    module_size = None;
    reference_sizes = None;
    metrics = Iddq_util.Metrics.global;
  }

let config ?(library = default_config.library)
    ?(weights = default_config.weights)
    ?(es_params = default_config.es_params) ?(seed = default_config.seed)
    ?module_size ?reference_sizes ?(metrics = default_config.metrics) () =
  { library; weights; es_params; seed; module_size; reference_sizes; metrics }

(* ------------------------------------------------------------------ *)
(* Structured errors                                                   *)
(* ------------------------------------------------------------------ *)

type error =
  | Empty_circuit
  | Bad_config of string
  | Characterization_failed of string
  | Infeasible of { method_ : method_; penalized : float; min_discriminability : float }
  | Internal of string

let error_to_string = function
  | Empty_circuit -> "the circuit has no gates to partition"
  | Bad_config msg -> "bad configuration: " ^ msg
  | Characterization_failed msg -> "characterization failed: " ^ msg
  | Infeasible { method_; penalized; min_discriminability } ->
    Printf.sprintf
      "method %s produced no feasible partition (penalized cost %g, min \
       discriminability %g)"
      (method_to_string method_) penalized min_discriminability
  | Internal msg -> "internal error: " ^ msg

(* Catch what the configured passes are documented to raise on bad
   inputs and turn it into the structured error; anything else is a
   bug and propagates. *)
let validate_config ~config method_ ch =
  let num_gates = Charac.num_gates ch in
  let p = config.es_params in
  if p.Es.mu < 1 then Error (Bad_config "es_params.mu must be >= 1")
  else if p.Es.lambda < 1 then Error (Bad_config "es_params.lambda must be >= 1")
  else if p.Es.max_generations < 0 then
    Error (Bad_config "es_params.max_generations must be >= 0")
  else begin
    match config.module_size with
    | Some s when s < 1 ->
      Error (Bad_config (Printf.sprintf "module size %d is not positive" s))
    | _ -> begin
      match method_, config.reference_sizes with
      | (Standard | Refined_standard), Some sizes ->
        if List.exists (fun s -> s < 1) sizes then
          Error (Bad_config "reference sizes must all be positive")
        else begin
          let sum = List.fold_left ( + ) 0 sizes in
          if sum <> num_gates then
            Error
              (Bad_config
                 (Printf.sprintf
                    "reference sizes sum to %d but the circuit has %d gates"
                    sum num_gates))
          else Ok ()
        end
      | _ -> Ok ()
    end
  end

let finish ~config ~method_used ~generations ch partition =
  {
    charac = ch;
    partition;
    breakdown =
      Cost.evaluate ~weights:config.weights ~metrics:config.metrics partition;
    sensors = Partition.sensors partition;
    method_used;
    generations;
  }

(* Module count implied by the configured/estimated start size. *)
let implied_module_count ~config ch =
  let n = Charac.num_gates ch in
  let size =
    match config.module_size with
    | Some s -> Stdlib.max 1 s
    | None -> Seeds.target_module_size ch
  in
  Stdlib.max 1 ((n + size - 1) / size)

let standard_sizes ~config ch =
  match config.reference_sizes with
  | Some sizes -> sizes
  | None ->
    let n = Charac.num_gates ch in
    let k = implied_module_count ~config ch in
    let base = n / k and extra = n mod k in
    List.init k (fun i -> base + if i < extra then 1 else 0)

let run_charac_exn ~config method_ ch =
  let rng = Rng.create config.seed in
  match method_ with
  | Evolution ->
    let starts =
      Seeds.population ~rng ?module_size:config.module_size
        ~count:config.es_params.Es.mu ch
    in
    let best, trace =
      Part_iddq.optimize ~weights:config.weights ~metrics:config.metrics
        ~params:config.es_params ~rng ~starts ()
    in
    finish ~config ~method_used:Evolution ~generations:(List.length trace) ch
      best.Es.solution
  | Standard ->
    let p = Standard.partition ch ~module_sizes:(standard_sizes ~config ch) in
    finish ~config ~method_used:Standard ~generations:0 ch p
  | Random ->
    let k = implied_module_count ~config ch in
    let p = Random_part.partition ~rng ch ~num_modules:k in
    finish ~config ~method_used:Random ~generations:0 ch p
  | Annealing ->
    let start = Seeds.chain_partition ~rng ?module_size:config.module_size ch in
    let p, _ =
      Annealing.optimize ~weights:config.weights ~metrics:config.metrics ~rng
        start
    in
    finish ~config ~method_used:Annealing ~generations:0 ch p
  | Refined_standard ->
    let start =
      Standard.partition ch ~module_sizes:(standard_sizes ~config ch)
    in
    let p, _ =
      Refine.optimize ~weights:config.weights ~metrics:config.metrics start
    in
    finish ~config ~method_used:Refined_standard ~generations:0 ch p

let check_feasible ~require_feasible method_ (r : t) =
  if require_feasible && not r.breakdown.Cost.feasible then
    Error
      (Infeasible
         {
           method_;
           penalized = r.breakdown.Cost.penalized;
           min_discriminability = r.breakdown.Cost.min_discriminability;
         })
  else Ok r

let run_charac_result ?(config = default_config) ?(require_feasible = false)
    method_ ch =
  if Charac.num_gates ch = 0 then Error Empty_circuit
  else begin
    match validate_config ~config method_ ch with
    | Error err -> Error err
    | Ok () -> begin
      (* The passes validate their own inputs with [Invalid_argument];
         after the checks above any residual raise is a configuration
         the validator does not model, still a caller error. *)
      match run_charac_exn ~config method_ ch with
      | r -> check_feasible ~require_feasible method_ r
      | exception Invalid_argument msg -> Error (Bad_config msg)
      | exception Failure msg -> Error (Internal msg)
    end
  end

let run_result ?(config = default_config) ?require_feasible method_ circuit =
  match Charac.make ~library:config.library circuit with
  | ch -> run_charac_result ~config ?require_feasible method_ ch
  | exception Invalid_argument msg -> Error (Characterization_failed msg)
  | exception Failure msg -> Error (Characterization_failed msg)
  | exception Not_found ->
    Error (Characterization_failed "cell lookup failed for a gate kind")

let run ?(config = default_config) method_ circuit =
  match run_result ~config method_ circuit with
  | Ok r -> r
  | Error e -> invalid_arg ("Pipeline.run: " ^ error_to_string e)

let compare_methods_result ?(config = default_config) circuit methods =
  match Charac.make ~library:config.library circuit with
  | exception Invalid_argument msg -> Error (Characterization_failed msg)
  | exception Failure msg -> Error (Characterization_failed msg)
  | ch ->
    let evolution_first =
      if List.mem Evolution methods then
        Evolution :: List.filter (fun m -> m <> Evolution) methods
      else methods
    in
    let config = ref config in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | m :: tl -> begin
        match run_charac_result ~config:!config m ch with
        | Error err -> Error err
        | Ok r ->
          (if m = Evolution && !config.reference_sizes = None then
             let sizes =
               List.map
                 (fun id -> Partition.size r.partition id)
                 (Partition.module_ids r.partition)
             in
             config := { !config with reference_sizes = Some sizes });
          go ((m, r) :: acc) tl
      end
    in
    Result.map
      (fun results ->
        (* restore the caller's method order *)
        List.map (fun m -> (m, List.assoc m results)) methods)
      (go [] evolution_first)

let compare_methods ?(config = default_config) circuit methods =
  match compare_methods_result ~config circuit methods with
  | Ok results -> results
  | Error e -> invalid_arg ("Pipeline.compare_methods: " ^ error_to_string e)

(* ------------------------------------------------------------------ *)
(* Test-application time for a concrete vector count                   *)
(* ------------------------------------------------------------------ *)

let test_time (r : t) ~vectors =
  let tech = Charac.technology r.charac in
  Iddq_bic.Test_time.total tech ~d_bic:r.breakdown.Cost.bic_delay ~vectors
    (List.map snd r.sensors)

let c4_of_vectors r ~vectors =
  let t = test_time r ~vectors in
  if t <= 0.0 then 0.0 else log (t /. 1.0e-9)
