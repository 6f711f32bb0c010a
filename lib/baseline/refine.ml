module Partition = Iddq_core.Partition
module Cost_eval = Iddq_core.Cost_eval

let optimize ?weights ~metrics ?(max_passes = 20) start =
  let eval = Cost_eval.create ?weights ~metrics (Partition.copy start) in
  let p = Cost_eval.partition eval in
  let current = ref (Cost_eval.penalized eval) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    List.iter
      (fun m ->
        (* the boundary is recomputed per module; gates moved earlier
           in the pass are naturally skipped by the membership check *)
        Array.iter
          (fun g ->
            if Partition.module_of_gate p g = m && Partition.size p m > 1 then
              List.iter
                (fun target ->
                  if Partition.module_of_gate p g = m then begin
                    Cost_eval.move eval ~gate:g ~target;
                    let candidate = Cost_eval.penalized eval in
                    if candidate < !current then begin
                      current := candidate;
                      improved := true
                    end
                    else Cost_eval.move eval ~gate:g ~target:m
                  end)
                (Partition.neighbour_modules p g))
          (Partition.boundary_gates p m))
      (Partition.module_ids p)
  done;
  (p, Cost_eval.breakdown eval)
