(* BENCHMARK.json, the benchmark's registry: workloads and every metric
   with its unit, direction and (end-to-end only) regression bound. *)

module Json = Iddq_util.Json

type metric = { name : string; unit_ : string; better : string; bound : float }
type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let path = "BENCHMARK.json"

let read () =
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let list k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list) in
  let metric m =
    match (str "name" m, str "unit" m, str "better" m) with
    | Some name, Some unit_, Some better ->
      let bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float) in
      { name; unit_; better; bound }
    | _ -> failwith (path ^ ": a metric lacks its name, unit or direction")
  in
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
    {
      workloads = List.filter_map (str "name") (list "workloads" j);
      end_to_end = List.map metric (list "end_to_end" j);
      per_layer = List.map metric (list "per_layer" j);
    }
