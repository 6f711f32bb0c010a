(* [compare A.jsonl B.jsonl]: for every workload and end-to-end metric,
   each side's median and quartiles over its untraced runs and a
   verdict against the metric's bound from BENCHMARK.json:

   - unresolved: either side's spread (quartile distance over median)
     exceeds the bound, and the runs do not all separate;
   - worse / better: B's median moved past the bound, in the metric's
     direction;
   - unchanged: otherwise.

   Exits 1 when any verdict is [worse]. *)

module Json = Iddq_util.Json

(* Quartiles as Python's [statistics.quantiles values ~n:4] (its default
   'exclusive' method) computes them; the middle one is the median. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* workload -> metric -> values, over the untraced records of a file *)
let load path =
  let table = Hashtbl.create 16 in
  In_channel.with_open_text path In_channel.input_lines
  |> List.iter (fun line ->
         match Json.parse line with
         | Error _ -> ()
         | Ok r ->
           let traced = Option.bind (Json.member "trace" r) Json.to_bool = Some true in
           match (Option.bind (Json.member "workload" r) Json.to_str, Json.member "metrics" r) with
           | Some w, Some (Json.Obj ms) when not traced ->
             List.iter
               (fun (name, m) ->
                 match Option.bind (Json.member "value" m) Json.to_float with
                 | Some v ->
                   let key = (w, name) in
                   Hashtbl.replace table key (v :: Option.value ~default:[] (Hashtbl.find_opt table key))
                 | None -> ())
               ms
           | _ -> ());
  table

let verdict (m : Spec.metric) a b =
  let _, ma, _ = quartiles a and _, mb, _ = quartiles b in
  let spread xs =
    let q1, med, q3 = quartiles xs in
    if med = 0.0 then (if q3 = q1 then 0.0 else infinity) else (q3 -. q1) /. Float.abs med
  in
  (* relative to A's median (absolute when that is 0); positive = B is worse *)
  let sign = if m.better = "higher" then -1.0 else 1.0 in
  let change = sign *. (mb -. ma) /. (if ma = 0.0 then 1.0 else Float.abs ma) in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) > 0.0) a) b in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.0) a) b in
  let v =
    if change > m.bound && (spread a <= m.bound && spread b <= m.bound || all_worse) then "worse"
    else if change < -.m.bound && (spread a <= m.bound && spread b <= m.bound || all_better) then
      "better"
    else if spread a > m.bound || spread b > m.bound then "unresolved"
    else "unchanged"
  in
  (change, v)

let run (spec : Spec.t) a_path b_path =
  let a = load a_path and b = load b_path in
  let worse = ref 0 in
  Printf.printf "%-14s %-14s %30s %30s %9s  %s\n" "workload" "metric" ("A " ^ Filename.basename a_path)
    ("B " ^ Filename.basename b_path) "worse by" "verdict";
  let side xs =
    let q1, med, q3 = quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" med q1 q3 (List.length xs)
  in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match (Hashtbl.find_opt a (w, m.name), Hashtbl.find_opt b (w, m.name)) with
          | Some xa, Some xb ->
            let change, v = verdict m xa xb in
            if v = "worse" then incr worse;
            Printf.printf "%-14s %-14s %30s %30s %+8.2f%%  %s (bound %g)\n" w m.name (side xa) (side xb)
              (100.0 *. change) v m.bound
          | _ -> Printf.printf "%-14s %-14s missing on one side\n" w m.name)
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  if !worse > 0 then 1 else 0
