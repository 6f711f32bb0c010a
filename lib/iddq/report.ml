module Table = Iddq_util.Table
module Json = Iddq_util.Json
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

type run = {
  modules : int;
  module_sizes : int list;
  generations : int;
  cost : float;
  feasible : bool;
  sensor_area : float;
  nominal_delay : float;
  bic_delay : float;
  test_time_per_vector : float;
  min_discriminability : float;
}

let run_of (r : Pipeline.t) =
  let p = r.Pipeline.partition and b = r.Pipeline.breakdown in
  {
    modules = Partition.num_modules p;
    module_sizes = List.map (Partition.size p) (Partition.module_ids p);
    generations = r.Pipeline.generations;
    cost = b.Cost.penalized;
    feasible = b.Cost.feasible;
    sensor_area = b.Cost.sensor_area;
    nominal_delay = b.Cost.nominal_delay;
    bic_delay = b.Cost.bic_delay;
    test_time_per_vector = b.Cost.test_time_per_vector;
    min_discriminability = b.Cost.min_discriminability;
  }

let run_fields r =
  [
    ("modules", Json.Int r.modules);
    ("module_sizes", Json.List (List.map (fun s -> Json.Int s) r.module_sizes));
    ("generations", Json.Int r.generations);
    ("cost", Json.Float r.cost);
    ("feasible", Json.Bool r.feasible);
    ("sensor_area", Json.Float r.sensor_area);
    ("nominal_delay", Json.Float r.nominal_delay);
    ("bic_delay", Json.Float r.bic_delay);
    ("test_time_per_vector", Json.Float r.test_time_per_vector);
    ("min_discriminability", Json.Float r.min_discriminability);
  ]

(* the keys campaign stores wrote before the run had one encoding *)
let legacy_keys =
  [ ("sensor_area", "area"); ("test_time_per_vector", "test_time");
    ("min_discriminability", "min_disc") ]

let int_list v =
  Option.bind (Json.to_list v) (fun l ->
      let ints = List.filter_map Json.to_int l in
      if List.compare_lengths ints l = 0 then Some ints else None)

let run_of_json j =
  let ( let* ) = Result.bind in
  let field name decode =
    let v =
      match (Json.member name j, List.assoc_opt name legacy_keys) with
      | None, Some key -> Json.member key j
      | v, _ -> v
    in
    match Option.bind v decode with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad or missing %S" name)
  in
  let* modules = field "modules" Json.to_int in
  let* module_sizes = field "module_sizes" int_list in
  let* generations = field "generations" Json.to_int in
  let* cost = field "cost" Json.to_float in
  let* feasible = field "feasible" Json.to_bool in
  let* sensor_area = field "sensor_area" Json.to_float in
  let* nominal_delay = field "nominal_delay" Json.to_float in
  let* bic_delay = field "bic_delay" Json.to_float in
  let* test_time_per_vector = field "test_time_per_vector" Json.to_float in
  let* min_discriminability = field "min_discriminability" Json.to_float in
  Ok
    { modules; module_sizes; generations; cost; feasible; sensor_area;
      nominal_delay; bic_delay; test_time_per_vector; min_discriminability }

let delay_overhead_percent r =
  100.0
  *. Cost.relative_delay ~nominal_delay:r.nominal_delay ~bic_delay:r.bic_delay

let test_time_overhead_percent r =
  if r.nominal_delay > 0.0 then
    100.0 *. (r.test_time_per_vector -. r.nominal_delay) /. r.nominal_delay
  else 0.0

let mean f = function
  | [] -> 0.0
  | l ->
    List.fold_left (fun acc x -> acc +. f x) 0.0 l /. float_of_int (List.length l)

let row_of_runs ~circuit_name ~standard ~evolution =
  let modules l =
    int_of_float (Float.round (mean (fun r -> float_of_int r.modules) l))
  in
  let area_standard = mean (fun r -> r.sensor_area) standard
  and area_evolution = mean (fun r -> r.sensor_area) evolution in
  {
    circuit_name;
    num_modules_standard = modules standard;
    num_modules_evolution = modules evolution;
    area_standard;
    area_evolution;
    area_overhead_percent =
      (if area_evolution > 0.0 then
         100.0 *. (area_standard -. area_evolution) /. area_evolution
       else 0.0);
    delay_overhead_standard_percent = mean delay_overhead_percent standard;
    delay_overhead_evolution_percent = mean delay_overhead_percent evolution;
    test_time_overhead_standard_percent = mean test_time_overhead_percent standard;
    test_time_overhead_evolution_percent =
      mean test_time_overhead_percent evolution;
  }

let row_of_results ~circuit_name ~standard ~evolution =
  row_of_runs ~circuit_name ~standard:[ run_of standard ]
    ~evolution:[ run_of evolution ]

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
