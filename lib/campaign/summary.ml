module Table = Iddq_util.Table
module Pipeline = Iddq.Pipeline
module Report = Iddq.Report

type method_agg = {
  method_ : Pipeline.method_;
  runs : int;
  ok : int;
  failed : int;
  timed_out : int;
  mean_modules : float;
  mean_cost : float;
  mean_area : float;
  mean_delay_overhead_pct : float;
  mean_test_overhead_pct : float;
  mean_elapsed : float;
}

let mean f l =
  match l with
  | [] -> 0.0
  | l -> List.fold_left (fun acc x -> acc +. f x) 0.0 l /. float_of_int (List.length l)

(* first-appearance order of [key] over [l] *)
let appearance_order key l =
  List.rev
    (List.fold_left
       (fun acc x ->
         let k = key x in
         if List.mem k acc then acc else k :: acc)
       [] l)

let by_method results =
  List.map
    (fun m ->
      let of_m = List.filter (fun (r : Job_result.t) -> r.Job_result.method_ = m) results in
      let done_ = List.filter Job_result.is_ok of_m in
      let runs = List.filter_map Job_result.run of_m in
      let count p = List.length (List.filter (fun r -> p r.Job_result.status) of_m) in
      {
        method_ = m;
        runs = List.length of_m;
        ok = List.length done_;
        failed = count (function Job_result.Failed _ -> true | _ -> false);
        timed_out = count (function Job_result.Timeout _ -> true | _ -> false);
        mean_modules = mean (fun r -> float_of_int r.Report.modules) runs;
        mean_cost = mean (fun r -> r.Report.cost) runs;
        mean_area = mean (fun r -> r.Report.sensor_area) runs;
        mean_delay_overhead_pct = mean Report.delay_overhead_percent runs;
        mean_test_overhead_pct = mean Report.test_time_overhead_percent runs;
        mean_elapsed = mean (fun (r : Job_result.t) -> r.Job_result.elapsed) done_;
      })
    (appearance_order (fun (r : Job_result.t) -> r.Job_result.method_) results)

let method_table aggs =
  let t =
    Table.create
      [
        ("method", Table.Left);
        ("ok/runs", Table.Right);
        ("failed", Table.Right);
        ("timeout", Table.Right);
        ("mean modules", Table.Right);
        ("mean cost", Table.Right);
        ("mean area", Table.Right);
        ("mean delay ovh %", Table.Right);
        ("mean test ovh %", Table.Right);
        ("mean wall (s)", Table.Right);
      ]
  in
  List.iter
    (fun a ->
      Table.add_row t
        [
          Pipeline.method_to_string a.method_;
          Printf.sprintf "%d/%d" a.ok a.runs;
          string_of_int a.failed;
          string_of_int a.timed_out;
          Printf.sprintf "%.1f" a.mean_modules;
          Printf.sprintf "%.2f" a.mean_cost;
          Printf.sprintf "%.3e" a.mean_area;
          Printf.sprintf "%.2e" a.mean_delay_overhead_pct;
          Printf.sprintf "%.2f" a.mean_test_overhead_pct;
          Printf.sprintf "%.2f" a.mean_elapsed;
        ])
    aggs;
  t

let table1_rows results =
  let circuits = appearance_order (fun (r : Job_result.t) -> r.Job_result.circuit) results in
  List.filter_map
    (fun circuit ->
      let runs_of m =
        List.filter_map
          (fun (r : Job_result.t) ->
            if r.Job_result.circuit = circuit && r.Job_result.method_ = m then
              Job_result.run r
            else None)
          results
      in
      match (runs_of Pipeline.Standard, runs_of Pipeline.Evolution) with
      | [], _ | _, [] -> None
      | standard, evolution ->
        Some (Report.row_of_runs ~circuit_name:circuit ~standard ~evolution))
    circuits

let pp fmt results =
  let aggs = by_method results in
  Format.fprintf fmt "per-method summary (means over completed runs):@.%s@."
    (Table.render (method_table aggs));
  (match table1_rows results with
  | [] -> ()
  | rows ->
    Format.fprintf fmt
      "@.Table-1 comparison (means over seeds and module sizes):@.%s@."
      (Table.render (Report.table rows)));
  let not_completed (r : Job_result.t) =
    match r.Job_result.status with
    | Job_result.Done _ -> None
    | Job_result.Failed msg -> Some (r.Job_result.job_id, "failed: " ^ msg)
    | Job_result.Timeout l ->
      Some (r.Job_result.job_id, Printf.sprintf "timeout (> %.1f s)" l)
  in
  match List.filter_map not_completed results with
  | [] -> ()
  | fs ->
    Format.fprintf fmt "@.%d job(s) not completed:@." (List.length fs);
    List.iter (fun (id, what) -> Format.fprintf fmt "  %s  %s@." id what) fs
