module Rng = Iddq_util.Rng
module Metrics = Iddq_util.Metrics
module Clock = Iddq_util.Clock
module Domain_pool = Iddq_util.Domain_pool
module Pipeline = Iddq.Pipeline
module Es = Iddq_evolution.Es

type outcome = {
  results : Job_result.t list;
  executed : int;
  skipped : int;
  ok : int;
  failed : int;
  timed_out : int;
}

type error = Invalid_spec of string | Pool_unavailable of string

let error_to_string = function
  | Invalid_spec msg -> "invalid campaign spec: " ^ msg
  | Pool_unavailable msg -> "cannot start the worker pool: " ^ msg

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

(* Scheduler state, guarded by one mutex.  Dependency edges only point
   from Standard/Refined_standard jobs to their Evolution sibling, so
   every waiting job is released by exactly one completion and the
   wait graph is acyclic by construction. *)
type state = {
  lock : Mutex.t;
  nonempty : Condition.t;
  ready : Spec.job Queue.t;
  waiting : (string, Spec.job list ref) Hashtbl.t;  (* dep id -> blocked jobs *)
  results : (string, Job_result.t) Hashtbl.t;
  mutable pending : int;  (* jobs not yet recorded this invocation *)
  mutable executed : int;
}

let reference_sizes_of state (job : Spec.job) =
  match job.Spec.depends_on with
  | None -> None
  | Some dep -> begin
    match Hashtbl.find_opt state.results dep with
    | Some r when Job_result.is_ok r && r.Job_result.module_sizes <> [] ->
      Some r.Job_result.module_sizes
    | _ -> None  (* dependency failed: fall back to the default sizes *)
  end

let record state ~store ~on_result (job : Spec.job) result =
  Hashtbl.replace state.results job.Spec.id result;
  Store.append store result;
  state.executed <- state.executed + 1;
  state.pending <- state.pending - 1;
  (match Hashtbl.find_opt state.waiting job.Spec.id with
  | Some blocked ->
    List.iter (fun j -> Queue.push j state.ready) !blocked;
    Hashtbl.remove state.waiting job.Spec.id
  | None -> ());
  on_result job result ~fresh:true;
  Condition.broadcast state.nonempty

let worker state spec ~resolve ~store ~on_result () =
  let rec loop () =
    Mutex.lock state.lock;
    while Queue.is_empty state.ready && state.pending > 0 do
      Condition.wait state.nonempty state.lock
    done;
    if Queue.is_empty state.ready then begin
      Mutex.unlock state.lock;
      ()
    end
    else begin
      let job = Queue.pop state.ready in
      let reference_sizes = reference_sizes_of state job in
      Mutex.unlock state.lock;
      let result = execute spec ~resolve job ~reference_sizes in
      Mutex.lock state.lock;
      record state ~store ~on_result job result;
      Mutex.unlock state.lock;
      loop ()
    end
  in
  loop ()

let run_validated ~domains ~resolve ~on_result ~store spec =
  let ( let* ) = Result.bind in
  let jobs = Spec.jobs spec in
  let state =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      ready = Queue.create ();
      waiting = Hashtbl.create 16;
      results = Hashtbl.create (List.length jobs);
      pending = 0;
      executed = 0;
    }
  in
  (* Partition the jobs: stored-Done ones are adopted as-is, the rest
     run — either immediately or once their dependency completes. *)
  let skipped = ref 0 in
  let to_run =
    List.filter
      (fun (job : Spec.job) ->
        match Store.find store job.Spec.id with
        | Some r when Job_result.is_ok r ->
          Hashtbl.replace state.results job.Spec.id r;
          incr skipped;
          on_result job r ~fresh:false;
          false
        | _ -> true)
      jobs
  in
  let running_ids =
    List.fold_left
      (fun acc (j : Spec.job) -> j.Spec.id :: acc)
      [] to_run
  in
  state.pending <- List.length to_run;
  List.iter
    (fun (job : Spec.job) ->
      match job.Spec.depends_on with
      | Some dep when List.mem dep running_ids ->
        let blocked =
          match Hashtbl.find_opt state.waiting dep with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add state.waiting dep l;
            l
        in
        blocked := job :: !blocked
      | _ -> Queue.push job state.ready)
    to_run;
  let pool = Stdlib.max 1 (Stdlib.min domains (List.length to_run)) in
  let work = worker state spec ~resolve ~store ~on_result in
  (* Each pool chunk is one worker loop; a loop returns only once no
     job is pending, so the barrier closes when the campaign is done. *)
  let* () =
    if state.pending = 0 then Ok ()
    else
      match Domain_pool.create ~domains:pool with
      | exception Failure msg -> Error (Pool_unavailable msg)
      | p ->
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown p)
          (fun () -> ignore (Domain_pool.run p ~chunks:pool (fun _ -> work ())));
        Ok ()
  in
  let results =
    List.map (fun (j : Spec.job) -> Hashtbl.find state.results j.Spec.id) jobs
  in
  let count p = List.length (List.filter p results) in
  Ok
    {
      results;
      executed = state.executed;
      skipped = !skipped;
      ok = count Job_result.is_ok;
      failed =
        count (fun r ->
            match r.Job_result.status with Job_result.Failed _ -> true | _ -> false);
      timed_out =
        count (fun r ->
            match r.Job_result.status with
            | Job_result.Timeout _ -> true
            | _ -> false);
    }

let run ?(domains = 1) ?(resolve = Iddq_netlist.Iscas.by_name)
    ?(on_result = fun _ _ ~fresh:_ -> ()) ~store spec =
  match Spec.validate spec with
  | Error e -> Error (Invalid_spec e)
  | Ok () -> run_validated ~domains ~resolve ~on_result ~store spec
