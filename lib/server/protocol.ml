module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Pipeline = Iddq.Pipeline

type request =
  | Load_circuit of { name : string option; bench : string option }
  | Characterize of { handle : string }
  | Partition of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      module_size : int option;
      require_feasible : bool;
    }
  | Fault_sim of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;
    }
  | Diagnose of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;
      epsilon : float;
      trials : int;
      top_k : int;
    }
  | Testset of {
      handle : string;
      seed : int;
      random_vectors : int;
      max_backtracks : int;
      budget : int option;
      strategy : Iddq_atpg.Atpg.strategy;
    }
  | Campaign_submit of { spec : string; domains : int }
  | Campaign_status of { campaign : string }
  | Metrics
  | Shutdown

type error_code =
  | Bad_request
  | Unknown_op
  | Not_found
  | Infeasible
  | Malformed_frame
  | Oversized_frame
  | Budget_exceeded
  | Overloaded
  | Internal

type error = { code : error_code; message : string }

let error code message = { code; message }

let code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Not_found -> "not_found"
  | Infeasible -> "infeasible"
  | Malformed_frame -> "malformed_frame"
  | Oversized_frame -> "oversized_frame"
  | Budget_exceeded -> "budget_exceeded"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_op" -> Some Unknown_op
  | "not_found" -> Some Not_found
  | "infeasible" -> Some Infeasible
  | "malformed_frame" -> Some Malformed_frame
  | "oversized_frame" -> Some Oversized_frame
  | "budget_exceeded" -> Some Budget_exceeded
  | "overloaded" -> Some Overloaded
  | "internal" -> Some Internal
  | _ -> None

let of_pipeline_error (e : Pipeline.error) =
  let message = Pipeline.error_to_string e in
  match e with
  | Pipeline.Empty_circuit | Pipeline.Bad_config _ -> error Bad_request message
  | Pipeline.Characterization_failed _ -> error Bad_request message
  | Pipeline.Infeasible _ -> error Infeasible message
  | Pipeline.Internal _ -> error Internal message

let of_atpg_error (e : Iddq_atpg.Atpg.error) =
  let message = Iddq_atpg.Atpg.error_to_string e in
  match e with
  | Iddq_atpg.Atpg.Empty_fault_list | Iddq_atpg.Atpg.Bad_config _
  | Iddq_atpg.Atpg.Fault_mismatch _ ->
    error Bad_request message
  | Iddq_atpg.Atpg.Budget_exhausted _ -> error Budget_exceeded message
  | Iddq_atpg.Atpg.Internal _ -> error Internal message

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let default_seed = 42
let default_vectors = 64
let default_defects = 200
let default_defect_current = 2.0e-6
let default_domains = 1
let default_epsilon = 0.0
let default_trials = 20
let default_top_k = 3
let default_random_vectors = Iddq_atpg.Atpg.default_config.random_vectors
let default_max_backtracks = Iddq_atpg.Atpg.default_config.max_backtracks

let member_id j = Option.bind (Json.member "id" j) Json.to_int

let request_of_json j =
  let id = member_id j in
  let ( let* ) = Result.bind in
  let bad msg = Error (id, error Bad_request msg) in
  (* Every field goes through [opt]: absent is [None], present with the
     wrong type or value is a bad request, never a silent default. *)
  let opt name decode ~what =
    match Json.member name j with
    | None -> Ok None
    | Some v -> begin
      match decode v with
      | Some x -> Ok (Some x)
      | None -> bad (Printf.sprintf "field %S must be %s" name what)
    end
  in
  let field name decode ~what ~default =
    Result.map (Option.value ~default) (opt name decode ~what)
  in
  let str name = opt name Json.to_str ~what:"a string" in
  let required_str name =
    let* v = str name in
    match v with
    | Some s -> Ok s
    | None -> bad (Printf.sprintf "missing string field %S" name)
  in
  let int name ~default = field name Json.to_int ~what:"an integer" ~default in
  let float name ~default = field name Json.to_float ~what:"a number" ~default in
  let method_ () =
    field "method"
      (fun v -> Option.bind (Json.to_str v) Pipeline.method_of_string)
      ~what:"a known method" ~default:Pipeline.Evolution
  in
  (* The six fields [fault_sim] and [diagnose] share. *)
  let simulation op =
    let* handle = required_str "handle" in
    let* method_ = method_ () in
    let* seed = int "seed" ~default:default_seed in
    let* vectors = int "vectors" ~default:default_vectors in
    let* defects = int "defects" ~default:default_defects in
    let* defect_current =
      float "defect_current" ~default:default_defect_current
    in
    if vectors < 1 || defects < 1 then
      bad (op ^ " needs positive \"vectors\" and \"defects\"")
    else if not (Float.is_finite defect_current && defect_current > 0.) then
      bad "\"defect_current\" must be finite and positive"
    else Ok (handle, method_, seed, vectors, defects, defect_current)
  in
  let* op = required_str "op" in
  let* request =
    match op with
    | "load_circuit" -> begin
      let* name = str "name" in
      let* bench = str "bench" in
      match name, bench with
      | None, None -> bad "load_circuit needs \"name\" or \"bench\""
      | Some _, Some _ ->
        bad "load_circuit takes \"name\" or \"bench\", not both"
      | _ -> Ok (Load_circuit { name; bench })
    end
    | "characterize" ->
      let* handle = required_str "handle" in
      Ok (Characterize { handle })
    | "partition" ->
      let* handle = required_str "handle" in
      let* method_ = method_ () in
      let* seed = int "seed" ~default:default_seed in
      let* module_size = opt "module_size" Json.to_int ~what:"an integer" in
      let* require_feasible =
        field "require_feasible" Json.to_bool ~what:"a boolean" ~default:false
      in
      Ok (Partition { handle; method_; seed; module_size; require_feasible })
    | "fault_sim" ->
      let* handle, method_, seed, vectors, defects, defect_current =
        simulation op
      in
      Ok
        (Fault_sim { handle; method_; seed; vectors; defects; defect_current })
    | "diagnose" ->
      let* handle, method_, seed, vectors, defects, defect_current =
        simulation op
      in
      let* epsilon = float "epsilon" ~default:default_epsilon in
      let* trials = int "trials" ~default:default_trials in
      let* top_k = int "top_k" ~default:default_top_k in
      if trials < 1 || top_k < 1 then
        bad "diagnose needs positive \"trials\" and \"top_k\""
      else if not (epsilon >= 0. && epsilon < 0.5) then
        bad "\"epsilon\" must lie in [0, 0.5)"
      else
        Ok
          (Diagnose
             {
               handle;
               method_;
               seed;
               vectors;
               defects;
               defect_current;
               epsilon;
               trials;
               top_k;
             })
    | "testset" ->
      let* handle = required_str "handle" in
      let* seed = int "seed" ~default:default_seed in
      let* random_vectors =
        int "random_vectors" ~default:default_random_vectors
      in
      let* max_backtracks =
        int "max_backtracks" ~default:default_max_backtracks
      in
      let* budget = int "budget" ~default:0 in
      let* strategy =
        field "strategy"
          (fun v -> Option.bind (Json.to_str v) Iddq_atpg.Atpg.strategy_of_string)
          ~what:"\"greedy\", \"essential\" or \"refined\""
          ~default:Iddq_atpg.Atpg.default_config.strategy
      in
      if random_vectors < 0 then bad "\"random_vectors\" must be non-negative"
      else if max_backtracks < 1 then bad "\"max_backtracks\" must be positive"
      else if budget < 0 then
        bad "\"budget\" must be positive (or 0 for unlimited)"
      else
        let budget = if budget = 0 then None else Some budget in
        Ok
          (Testset
             { handle; seed; random_vectors; max_backtracks; budget; strategy })
    | "campaign_submit" ->
      let* spec = required_str "spec" in
      let* domains = int "domains" ~default:default_domains in
      if domains < 1 then bad "\"domains\" must be positive"
      else Ok (Campaign_submit { spec; domains })
    | "campaign_status" ->
      let* campaign = required_str "campaign" in
      Ok (Campaign_status { campaign })
    | "metrics" -> Ok Metrics
    | "shutdown" -> Ok Shutdown
    | op -> Error (id, error Unknown_op (Printf.sprintf "unknown op %S" op))
  in
  Ok (id, request)

let request_to_json ?id r =
  let id_field = match id with None -> [] | Some n -> [ ("id", Json.Int n) ] in
  let fields =
    match r with
    | Load_circuit { name; bench } ->
      ("op", Json.String "load_circuit")
      :: (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
      @ (match bench with Some b -> [ ("bench", Json.String b) ] | None -> [])
    | Characterize { handle } ->
      [ ("op", Json.String "characterize"); ("handle", Json.String handle) ]
    | Partition { handle; method_; seed; module_size; require_feasible } ->
      [
        ("op", Json.String "partition");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
      ]
      @ (match module_size with
        | Some s -> [ ("module_size", Json.Int s) ]
        | None -> [])
      @ [ ("require_feasible", Json.Bool require_feasible) ]
    | Fault_sim { handle; method_; seed; vectors; defects; defect_current } ->
      [
        ("op", Json.String "fault_sim");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
        ("vectors", Json.Int vectors);
        ("defects", Json.Int defects);
        ("defect_current", Json.Float defect_current);
      ]
    | Diagnose
        {
          handle;
          method_;
          seed;
          vectors;
          defects;
          defect_current;
          epsilon;
          trials;
          top_k;
        } ->
      [
        ("op", Json.String "diagnose");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
        ("vectors", Json.Int vectors);
        ("defects", Json.Int defects);
        ("defect_current", Json.Float defect_current);
        ("epsilon", Json.Float epsilon);
        ("trials", Json.Int trials);
        ("top_k", Json.Int top_k);
      ]
    | Testset { handle; seed; random_vectors; max_backtracks; budget; strategy }
      ->
      [
        ("op", Json.String "testset");
        ("handle", Json.String handle);
        ("seed", Json.Int seed);
        ("random_vectors", Json.Int random_vectors);
        ("max_backtracks", Json.Int max_backtracks);
      ]
      @ (match budget with Some b -> [ ("budget", Json.Int b) ] | None -> [])
      @ [
          ( "strategy",
            Json.String (Iddq_atpg.Atpg.strategy_to_string strategy) );
        ]
    | Campaign_submit { spec; domains } ->
      [
        ("op", Json.String "campaign_submit");
        ("spec", Json.String spec);
        ("domains", Json.Int domains);
      ]
    | Campaign_status { campaign } ->
      [
        ("op", Json.String "campaign_status");
        ("campaign", Json.String campaign);
      ]
    | Metrics -> [ ("op", Json.String "metrics") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
  in
  Json.Obj (id_field @ fields)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let id_field = function None -> [] | Some n -> [ ("id", Json.Int n) ]

let ok_response ~id payload = Json.Obj (id_field id @ [ ("ok", payload) ])

let error_response ~id { code; message } =
  Json.Obj
    (id_field id
    @ [
        ( "error",
          Json.Obj
            [
              ("code", Json.String (code_to_string code));
              ("message", Json.String message);
            ] );
      ])

let response_id = member_id

let response_payload j =
  match Json.member "ok" j with
  | Some payload -> Ok payload
  | None -> begin
    match Json.member "error" j with
    | Some e ->
      let code =
        match
          Option.bind (Option.bind (Json.member "code" e) Json.to_str)
            code_of_string
        with
        | Some c -> c
        | None -> Internal
      in
      let message =
        match Option.bind (Json.member "message" e) Json.to_str with
        | Some m -> m
        | None -> "unspecified error"
      in
      Error { code; message }
    | None -> Error (error Internal "response carries neither ok nor error")
  end

let snapshot_json = Metrics.to_json
