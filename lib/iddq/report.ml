module Table = Iddq_util.Table
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Sensor = Iddq_bic.Sensor

type row = {
  circuit_name : string;
  num_modules_standard : int;
  num_modules_evolution : int;
  area_standard : float;
  area_evolution : float;
  area_overhead_percent : float;
  delay_overhead_standard_percent : float;
  delay_overhead_evolution_percent : float;
  test_time_overhead_standard_percent : float;
  test_time_overhead_evolution_percent : float;
}

let delay_overhead_percent (b : Cost.breakdown) = 100.0 *. b.Cost.c2_delay

let test_time_overhead_percent (b : Cost.breakdown) =
  100.0
  *. (b.Cost.test_time_per_vector -. b.Cost.nominal_delay)
  /. b.Cost.nominal_delay

let row_of_results ~circuit_name ~(standard : Pipeline.t)
    ~(evolution : Pipeline.t) =
  let bs = standard.Pipeline.breakdown and be = evolution.Pipeline.breakdown in
  {
    circuit_name;
    num_modules_standard = Partition.num_modules standard.Pipeline.partition;
    num_modules_evolution = Partition.num_modules evolution.Pipeline.partition;
    area_standard = bs.Cost.sensor_area;
    area_evolution = be.Cost.sensor_area;
    area_overhead_percent =
      100.0 *. (bs.Cost.sensor_area -. be.Cost.sensor_area)
      /. be.Cost.sensor_area;
    delay_overhead_standard_percent = delay_overhead_percent bs;
    delay_overhead_evolution_percent = delay_overhead_percent be;
    test_time_overhead_standard_percent = test_time_overhead_percent bs;
    test_time_overhead_evolution_percent = test_time_overhead_percent be;
  }

let table rows =
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("#modules", Table.Right);
        ("area std", Table.Right);
        ("area evo", Table.Right);
        ("area ovh std/evo", Table.Right);
        ("delay ovh std %", Table.Right);
        ("delay ovh evo %", Table.Right);
        ("test ovh std %", Table.Right);
        ("test ovh evo %", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let modules =
        if r.num_modules_standard = r.num_modules_evolution then
          string_of_int r.num_modules_evolution
        else
          Printf.sprintf "%d/%d" r.num_modules_standard r.num_modules_evolution
      in
      Table.add_row t
        [
          r.circuit_name;
          modules;
          Printf.sprintf "%.2e" r.area_standard;
          Printf.sprintf "%.2e" r.area_evolution;
          Printf.sprintf "%.1f%%" r.area_overhead_percent;
          Printf.sprintf "%.2e" r.delay_overhead_standard_percent;
          Printf.sprintf "%.2e" r.delay_overhead_evolution_percent;
          Printf.sprintf "%.2e" r.test_time_overhead_standard_percent;
          Printf.sprintf "%.2e" r.test_time_overhead_evolution_percent;
        ])
    rows;
  t

(* The search and fault-simulation counters; the server's stay in the
   [metrics] reply. *)
let metrics_columns =
  Iddq_util.Metrics.
    [
      full_evals;
      delta_evals;
      eval_cache_hits;
      moves;
      gates_full;
      gates_delta;
      sim_blocks;
      sim_fault_blocks;
      sim_faults_dropped;
      sim_steals;
    ]

let metrics_table (s : Iddq_util.Metrics.snapshot) =
  let module M = Iddq_util.Metrics in
  let t =
    Table.create
      (List.map
         (fun h -> (h, Table.Right))
         (("evaluations" :: List.map M.name metrics_columns)
         @ [ "eval-equivalents"; "speedup" ]))
  in
  Table.add_row t
    ((string_of_int (M.evaluations s)
     :: List.map (fun c -> string_of_int (M.get s c)) metrics_columns)
    @ [
        Printf.sprintf "%.1f" (M.equivalent_evals s);
        Printf.sprintf "%.1fx" (M.speedup s);
      ]);
  t

let pp_metrics fmt s =
  Format.fprintf fmt "@[<hov 2>%a@]" Iddq_util.Metrics.pp s

let pp_pipeline fmt (r : Pipeline.t) =
  Format.fprintf fmt "method=%s modules=%d generations=%d@."
    (Pipeline.method_to_string r.Pipeline.method_used)
    (Partition.num_modules r.Pipeline.partition)
    r.Pipeline.generations;
  Format.fprintf fmt "%a@." Cost.pp_breakdown r.Pipeline.breakdown;
  List.iter
    (fun (m, s) ->
      Format.fprintf fmt "  sensor[%d]: %a (module %d gates, d=%.1f)@." m
        Sensor.pp s
        (Partition.size r.Pipeline.partition m)
        (Partition.discriminability r.Pipeline.partition m))
    r.Pipeline.sensors
