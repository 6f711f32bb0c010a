module Stuck_at = Iddq_defects.Stuck_at
module Coverage = Iddq_defects.Coverage
module Rng = Iddq_util.Rng

type strategy = Testset.strategy = Greedy | Essential | Refined

let strategy_to_string = Testset.strategy_to_string
let strategy_of_string = Testset.strategy_of_string

type config = {
  max_backtracks : int;
  budget : int option;
  strategy : strategy;
  seed : int;
  random_vectors : int;
}

let default_config =
  {
    max_backtracks = 2000;
    budget = None;
    strategy = Refined;
    seed = 42;
    random_vectors = 32;
  }

let config ?(max_backtracks = default_config.max_backtracks)
    ?budget
    ?(strategy = default_config.strategy)
    ?(seed = default_config.seed)
    ?(random_vectors = default_config.random_vectors) () =
  { max_backtracks; budget; strategy; seed; random_vectors }

type error =
  | Empty_fault_list
  | Bad_config of string
  | Fault_mismatch of string
  | Budget_exhausted of { targeted : int; remaining : int }
  | Internal of string

let error_to_string = function
  | Empty_fault_list -> "empty fault list: nothing to target"
  | Bad_config msg -> Printf.sprintf "bad configuration: %s" msg
  | Fault_mismatch msg -> Printf.sprintf "fault/circuit mismatch: %s" msg
  | Budget_exhausted { targeted; remaining } ->
    Printf.sprintf
      "PODEM budget exhausted after %d target attempts (%d faults untargeted)"
      targeted remaining
  | Internal msg -> Printf.sprintf "internal ATPG error: %s" msg

type set_result = {
  vectors : bool array array;
  all_vectors : bool array array;
  selected : int array;
  vectors_before : int;
  coverage : float;
  efficiency : float;
  stats : Testset.stats;
  matrix : Coverage.detection_matrix;
  strategy : strategy;
}

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate_config cfg =
  if cfg.max_backtracks < 1 then
    Error
      (Bad_config
         (Printf.sprintf "max_backtracks must be >= 1 (got %d)"
            cfg.max_backtracks))
  else
    match cfg.budget with
    | Some b when b < 1 ->
      Error (Bad_config (Printf.sprintf "budget must be >= 1 (got %d)" b))
    | _ ->
      if cfg.random_vectors < 0 then
        Error
          (Bad_config
             (Printf.sprintf "random_vectors must be >= 0 (got %d)"
                cfg.random_vectors))
      else Ok ()

let rec validate_faults c = function
  | [] -> Ok ()
  | f :: rest -> begin
    match Stuck_at.validate_fault c f with
    | Error m -> Error (Fault_mismatch m)
    | Ok () -> validate_faults c rest
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Stdlib.Result.bind

let generate_result ?(config = default_config) c faults =
  let* () = validate_config config in
  let* () = match faults with [] -> Error Empty_fault_list | _ -> Ok () in
  let* () = validate_faults c faults in
  match
    let rng = Rng.create config.seed in
    let initial =
      if config.random_vectors = 0 then [||]
      else Iddq_patterns.Pattern_gen.random ~rng c ~count:config.random_vectors
    in
    Testset.generate ~max_backtracks:config.max_backtracks
      ?budget:config.budget ~rng ~initial c faults
  with
  | exception exn -> Error (Internal (Printexc.to_string exn))
  | gen ->
    if gen.Testset.remaining > 0 then
      Error
        (Budget_exhausted
           {
             targeted = gen.Testset.stats.Testset.targeted;
             remaining = gen.Testset.remaining;
           })
    else begin
      match Testset.minimize config.strategy gen.Testset.matrix with
      | exception exn -> Error (Internal (Printexc.to_string exn))
      | selected ->
        Ok
          {
            vectors = Testset.select gen.Testset.vectors selected;
            all_vectors = gen.Testset.vectors;
            selected;
            vectors_before = Array.length gen.Testset.vectors;
            coverage = gen.Testset.coverage;
            efficiency = gen.Testset.efficiency;
            stats = gen.Testset.stats;
            matrix = gen.Testset.matrix;
            strategy = config.strategy;
          }
    end

let run_result ?config c =
  match Stuck_at.collapsed_fault_list c with
  | exception exn -> Error (Internal (Printexc.to_string exn))
  | faults -> generate_result ?config c faults

let minimize_result ?(strategy = default_config.strategy) m =
  match Testset.minimize strategy m with
  | exception exn -> Error (Internal (Printexc.to_string exn))
  | selected -> Ok selected
