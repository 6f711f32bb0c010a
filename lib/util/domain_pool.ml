type job = {
  f : int -> unit;
  chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  claimed : int array; (* per participant; slot i written only by i *)
}

type t = {
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable failure : exn option;
  m : Mutex.t;
  work_cv : Condition.t; (* workers: a new generation is up *)
  done_cv : Condition.t; (* caller: the current job completed *)
  mutable workers : unit Domain.t array;
  size : int;
}

(* Claim chunks round-robin until none remain.  Every claimed chunk
   increments [completed] exactly once (even when [f] raises — the
   failure is recorded and the barrier still closes); whoever
   completes the last chunk wakes the caller. *)
let execute t job me =
  let rec claim () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.chunks then begin
      job.claimed.(me) <- job.claimed.(me) + 1;
      (try job.f c
       with e ->
         Mutex.lock t.m;
         if t.failure = None then t.failure <- Some e;
         Mutex.unlock t.m);
      if Atomic.fetch_and_add job.completed 1 = job.chunks - 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end;
      claim ()
    end
  in
  claim ()

let worker t me =
  let rec loop last_gen =
    Mutex.lock t.m;
    while (not t.stop) && t.generation = last_gen do
      Condition.wait t.work_cv t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      let gen = t.generation in
      let job = t.job in
      Mutex.unlock t.m;
      (match job with Some j -> execute t j me | None -> ());
      loop gen
    end
  in
  loop 0

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  if not already then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let create ~domains =
  let size = Stdlib.max 1 domains in
  let t =
    {
      job = None;
      generation = 0;
      stop = false;
      failure = None;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      workers = [||];
      size;
    }
  in
  let spawned = ref [] in
  match
    for i = 1 to size - 1 do
      spawned := Domain.spawn (fun () -> worker t i) :: !spawned
    done
  with
  | () ->
    t.workers <- Array.of_list (List.rev !spawned);
    t
  | exception e ->
    (* join the workers already running: a failed pool keeps no domain
       alive, so it takes no slot of the runtime's domain limit *)
    let bt = Printexc.get_raw_backtrace () in
    t.workers <- Array.of_list !spawned;
    shutdown t;
    Printexc.raise_with_backtrace e bt

let size t = t.size

let run t ~chunks f =
  if chunks <= 0 then 0
  else if t.size <= 1 || t.stop || chunks = 1 then begin
    for c = 0 to chunks - 1 do
      f c
    done;
    0
  end
  else begin
    let job =
      {
        f;
        chunks;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        claimed = Array.make t.size 0;
      }
    in
    Mutex.lock t.m;
    t.failure <- None;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    execute t job 0;
    Mutex.lock t.m;
    while Atomic.get job.completed < chunks do
      Condition.wait t.done_cv t.m
    done;
    let failure = t.failure in
    t.job <- None;
    Mutex.unlock t.m;
    (match failure with Some e -> raise e | None -> ());
    let fair = (chunks + t.size - 1) / t.size in
    Array.fold_left
      (fun acc claimed -> acc + Stdlib.max 0 (claimed - fair))
      0 job.claimed
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
