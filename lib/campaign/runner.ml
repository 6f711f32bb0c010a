module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Clock = Iddq_util.Clock
module Domain_pool = Iddq_util.Domain_pool
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report
module Es = Iddq_evolution.Es

type outcome = {
  results : Job_result.t list;
  executed : int;
  skipped : int;
  ok : int;
  failed : int;
  timed_out : int;
}

type error =
  | Invalid_spec of string
  | Pool_unavailable of string
  | Record_failed of string

let error_to_string = function
  | Invalid_spec msg -> "invalid campaign spec: " ^ msg
  | Pool_unavailable msg -> "cannot start the worker pool: " ^ msg
  | Record_failed msg -> "cannot record a job result: " ^ msg

let derived_seed (job : Spec.job) =
  Rng.keyed_seed ~key:job.Spec.id ~seed:job.Spec.seed

let job_config (spec : Spec.t) (job : Spec.job) ~reference_sizes ~metrics =
  let es_params =
    match spec.Spec.max_generations with
    | None -> Es.default_params
    | Some g -> { Es.default_params with Es.max_generations = g }
  in
  Pipeline.config ~seed:(derived_seed job) ?module_size:job.Spec.module_size
    ?reference_sizes ~es_params ~metrics ()

let execute (spec : Spec.t) ~resolve (job : Spec.job) ~reference_sizes =
  let metrics = Metrics.create () in
  let config = job_config spec job ~reference_sizes ~metrics in
  let derived_seed = config.Pipeline.seed in
  let t0 = Clock.now_ns () in
  let finish k =
    let elapsed = Clock.seconds_since t0 in
    k ~elapsed ~metrics:(Metrics.snapshot metrics)
  in
  match
    match resolve job.Spec.circuit with
    | Some circuit ->
      Result.map_error Pipeline.error_to_string
        (Pipeline.run_result ~config job.Spec.method_ circuit)
    | None -> Error (Printf.sprintf "unknown circuit %S" job.Spec.circuit)
  with
  | Ok result ->
    finish (fun ~elapsed ~metrics ->
        match spec.Spec.timeout with
        | Some limit when elapsed > limit ->
          Job_result.timed_out ~job ~derived_seed ~elapsed ~metrics ~limit
        | _ -> Job_result.of_run ~job ~derived_seed ~elapsed ~metrics result)
  | Error msg -> finish (Job_result.failure ~job ~derived_seed msg)
  | exception e ->
    finish (Job_result.failure ~job ~derived_seed (Printexc.to_string e))

let reference_sizes_of results (job : Spec.job) =
  match job.Spec.depends_on with
  | None -> None
  | Some dep -> begin
    match Option.bind (Hashtbl.find_opt results dep) Job_result.run with
    | Some run when run.Report.module_sizes <> [] ->
      Some run.Report.module_sizes
    | _ -> None  (* dependency failed: fall back to the default sizes *)
  end

(* Keep the first exception out of a record ([Store.append] or
   [on_result]); once one is kept, the remaining chunks return without
   running their job. *)
let guard failure f =
  try f ()
  with e ->
    ignore (Atomic.compare_and_set failure None (Some (Printexc.to_string e)))

let run_validated ~domains ~resolve ~on_result ~store spec =
  let jobs = Spec.jobs spec in
  let results = Hashtbl.create (List.length jobs) in
  let failure = Atomic.make None in
  (* Stored-Done jobs are adopted as-is, the rest run. *)
  let skipped = ref 0 in
  let to_run =
    List.filter
      (fun (job : Spec.job) ->
        match Store.find store job.Spec.id with
        | Some r when Job_result.is_ok r ->
          Hashtbl.replace results job.Spec.id r;
          incr skipped;
          guard failure (fun () -> on_result job r ~fresh:false);
          false
        | _ -> true)
      jobs
  in
  (* Dependency edges only point from Standard/Refined_standard jobs to
     their Evolution sibling, which depends on nothing: a job whose
     dependency runs now waits for the first wave's barrier, every
     other job runs in that wave. *)
  let runs_now dep = List.exists (fun (j : Spec.job) -> j.Spec.id = dep) to_run in
  let second, first =
    List.partition
      (fun (j : Spec.job) -> Option.fold ~none:false ~some:runs_now j.Spec.depends_on)
      to_run
  in
  let lock = Mutex.create () in
  let executed = ref 0 in
  let record (job : Spec.job) result =
    Mutex.protect lock (fun () ->
        Hashtbl.replace results job.Spec.id result;
        Store.append store result;
        incr executed;
        on_result job result ~fresh:true)
  in
  (* One chunk per job.  A wave reads its reference sizes before it
     starts, so no chunk reads [results] while another writes it. *)
  let wave pool wave_jobs =
    let wave_jobs =
      Array.of_list
        (List.map (fun j -> (j, reference_sizes_of results j)) wave_jobs)
    in
    ignore
      (Domain_pool.run pool ~chunks:(Array.length wave_jobs) (fun c ->
           let job, reference_sizes = wave_jobs.(c) in
           if Atomic.get failure = None then begin
             let result = execute spec ~resolve job ~reference_sizes in
             guard failure (fun () -> record job result)
           end))
  in
  let widest = Stdlib.max (List.length first) (List.length second) in
  let ran =
    if to_run = [] then Ok ()
    else
      match Domain_pool.create ~domains:(Stdlib.min domains widest) with
      | exception Failure msg -> Error (Pool_unavailable msg)
      | pool ->
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () ->
            wave pool first;
            wave pool second);
        Ok ()
  in
  match (ran, Atomic.get failure) with
  | Error e, _ -> Error e
  | Ok (), Some msg -> Error (Record_failed msg)
  | Ok (), None ->
    let results =
      List.map (fun (j : Spec.job) -> Hashtbl.find results j.Spec.id) jobs
    in
    let count p =
      List.length (List.filter (fun r -> p r.Job_result.status) results)
    in
    Ok
      {
        results;
        executed = !executed;
        skipped = !skipped;
        ok = List.length (List.filter Job_result.is_ok results);
        failed = count (function Job_result.Failed _ -> true | _ -> false);
        timed_out = count (function Job_result.Timeout _ -> true | _ -> false);
      }

let run ?(domains = 1) ?(resolve = Iddq_netlist.Iscas.by_name)
    ?(on_result = fun _ _ ~fresh:_ -> ()) ~store spec =
  match Spec.validate spec with
  | Error e -> Error (Invalid_spec e)
  | Ok () -> run_validated ~domains ~resolve ~on_result ~store spec
