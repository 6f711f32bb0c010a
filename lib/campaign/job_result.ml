module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report

type status = Done of Report.run | Failed of string | Timeout of float

type t = {
  job_id : string;
  circuit : string;
  method_ : Pipeline.method_;
  seed : int;
  derived_seed : int;
  module_size : int option;
  status : status;
  elapsed : float;
  metrics : Metrics.snapshot;
}

let is_ok r = match r.status with Done _ -> true | _ -> false
let run r = match r.status with Done run -> Some run | _ -> None

let make ~(job : Spec.job) ~derived_seed ~elapsed ~metrics status =
  {
    job_id = job.Spec.id;
    circuit = job.Spec.circuit;
    method_ = job.Spec.method_;
    seed = job.Spec.seed;
    derived_seed;
    module_size = job.Spec.module_size;
    status;
    elapsed;
    metrics;
  }

let of_run ~job ~derived_seed ~elapsed ~metrics r =
  make ~job ~derived_seed ~elapsed ~metrics (Done (Report.run_of r))

let failure ~job ~derived_seed ~elapsed ~metrics msg =
  make ~job ~derived_seed ~elapsed ~metrics (Failed msg)

let timed_out ~job ~derived_seed ~elapsed ~metrics ~limit =
  make ~job ~derived_seed ~elapsed ~metrics (Timeout limit)

let strip_timing r =
  { r with elapsed = 0.0; metrics = Metrics.strip_timing r.metrics }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let to_json r =
  let status, detail =
    match r.status with
    | Done run -> ("ok", Report.run_fields run)
    | Failed msg -> ("failed", [ ("error", Json.String msg) ])
    | Timeout limit -> ("timeout", [ ("timeout_s", Json.Float limit) ])
  in
  Json.Obj
    ([
       ("job", Json.String r.job_id);
       ("circuit", Json.String r.circuit);
       ("method", Json.String (Pipeline.method_to_string r.method_));
       ("seed", Json.Int r.seed);
       ("derived_seed", Json.Int r.derived_seed);
       ( "module_size",
         match r.module_size with None -> Json.Null | Some s -> Json.Int s );
       ("status", Json.String status);
       ("elapsed", Json.Float r.elapsed);
     ]
    @ detail
    @ [ ("metrics", Metrics.to_json r.metrics) ])

let of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let field name decode =
    match Option.bind (Json.member name j) decode with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "result record: bad or missing %S" name)
  in
  let* job_id = field "job" Json.to_str in
  let* circuit = field "circuit" Json.to_str in
  let* method_name = field "method" Json.to_str in
  let* method_ =
    match Pipeline.method_of_string method_name with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "result record: unknown method %S" method_name)
  in
  let* seed = field "seed" Json.to_int in
  let* derived_seed = field "derived_seed" Json.to_int in
  let* module_size =
    match Json.member "module_size" j with
    | Some Json.Null | None -> Ok None
    | Some v -> begin
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error "result record: bad module_size"
    end
  in
  let* status_name = field "status" Json.to_str in
  let* status =
    match status_name with
    | "ok" -> begin
      match Report.run_of_json j with
      | Ok run -> Ok (Done run)
      | Error e -> Error ("result record: " ^ e)
    end
    | "failed" ->
      let* msg = field "error" Json.to_str in
      Ok (Failed msg)
    | "timeout" ->
      let* limit = field "timeout_s" Json.to_float in
      Ok (Timeout limit)
    | s -> Error (Printf.sprintf "result record: unknown status %S" s)
  in
  let* elapsed = field "elapsed" Json.to_float in
  let* metrics =
    match Json.member "metrics" j with
    | Some m ->
      Result.map_error (fun e -> "result record: " ^ e) (Metrics.of_json m)
    | None -> Error "result record: missing metrics"
  in
  Ok
    { job_id; circuit; method_; seed; derived_seed; module_size; status;
      elapsed; metrics }

let to_line r = Json.to_string (to_json r)

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> of_json j
