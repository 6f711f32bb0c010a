(* [smoke]: the benchmark's check of itself, in well under a minute.
   It checks BENCHMARK.json against the limits the runs must respect,
   then runs every workload at reduced sizes (--smoke, one second),
   untraced and traced, as a child process — the way the benchmark is
   run for real — and checks each result line, record and trace file.
   Correctness checks inside the workloads (ES cost = Cost.evaluate,
   the decomposed flow = Pipeline.run_charac_result, minimized sets
   keep coverage, every served response ok) surface as [correct]. *)

module Json = Iddq_util.Json

let problems = ref 0

let expect what ok =
  if not ok then begin
    incr problems;
    Printf.printf "FAIL %s\n%!" what
  end

let chars_ok allowed s = String.for_all (fun c -> allowed c) s

let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false
let name_ok s =
  s <> "" && String.length s <= 64 && alnum s.[0]
  && chars_ok (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let unit_ok s =
  s <> "" && String.length s <= 16
  && chars_ok (fun c -> alnum c || String.contains "_/%.-" c) s

let check_spec (spec : Spec.t) =
  let all = spec.end_to_end @ spec.per_layer in
  let n_e2e = List.length spec.end_to_end and n_layer = List.length spec.per_layer in
  expect "2 to 8 workloads" (List.length spec.workloads >= 2 && List.length spec.workloads <= 8);
  expect "1 to 16 end-to-end metrics" (n_e2e >= 1 && n_e2e <= 16);
  expect "1 to 128 per-layer metrics" (n_layer >= 1 && n_layer <= 128);
  let names = spec.workloads @ List.map (fun (m : Spec.metric) -> m.name) all in
  expect "names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  List.iter (fun n -> expect (n ^ ": name") (name_ok n)) names;
  List.iter
    (fun (m : Spec.metric) ->
      expect (m.name ^ ": unit " ^ m.unit_) (unit_ok m.unit_);
      expect (m.name ^ ": direction") (m.better = "lower" || m.better = "higher"))
    all;
  List.iter
    (fun (m : Spec.metric) -> expect (m.name ^ ": bound in [0, 0.25]") (m.bound >= 0.0 && m.bound <= 0.25))
    spec.end_to_end;
  expect "setup_s is end-to-end, in s, lower is better"
    (List.exists
       (fun (m : Spec.metric) -> m.name = "setup_s" && m.unit_ = "s" && m.better = "lower")
       spec.end_to_end)

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  (Unix.close_process_in ic, lines)

let check_result ~what ~(declared : Spec.metric list) ~e2e line =
  match Json.parse line with
  | Ok (Json.Obj kvs as j) ->
    expect (what ^ ": exactly correct/attempted/failed/metrics")
      (List.sort compare (List.map fst kvs) = [ "attempted"; "correct"; "failed"; "metrics" ]);
    expect (what ^ ": correct") (Option.bind (Json.member "correct" j) Json.to_bool = Some true);
    expect (what ^ ": failed = 0") (Option.bind (Json.member "failed" j) Json.to_int = Some 0);
    expect (what ^ ": attempted >= 1")
      (Option.value ~default:0 (Option.bind (Json.member "attempted" j) Json.to_int) >= 1);
    let metrics = Option.value ~default:[] (Option.bind (Json.member "metrics" j) Json.to_obj) in
    expect (what ^ ": exactly the declared metrics")
      (List.sort compare (List.map fst metrics)
      = List.sort compare (List.map (fun (m : Spec.metric) -> m.name) declared));
    List.iter
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name metrics with
        | None -> ()
        | Some v ->
          let value = Option.bind (Json.member "value" v) Json.to_float in
          expect (Printf.sprintf "%s: %s unit" what m.name)
            (Option.bind (Json.member "unit" v) Json.to_str = Some m.unit_);
          expect (Printf.sprintf "%s: %s finite" what m.name)
            (match value with Some x -> Float.is_finite x | None -> false);
          if e2e then expect (Printf.sprintf "%s: %s non-zero" what m.name) (value <> Some 0.0))
      declared
  | _ -> expect (what ^ ": last line is a JSON object") false

let check_trace ~what path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j ->
    let events = Option.value ~default:[] (Option.bind (Json.member "traceEvents" j) Json.to_list) in
    expect (what ^ ": trace has spans") (events <> []);
    expect (what ^ ": self times are non-negative")
      (List.for_all
         (fun e ->
           match Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member "self_us" a) Json.to_float) with
           | Some s -> s >= -1e-3
           | None -> false)
         events)
  | Error e -> expect (what ^ ": trace parses: " ^ e) false
  | exception Sys_error e -> expect (what ^ ": trace written: " ^ e) false

let run (spec : Spec.t) =
  check_spec spec;
  let out = "perfbench/results/smoke.jsonl" in
  if Sys.file_exists out then Sys.remove out;
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s (trace %d)" w (if trace then 1 else 0) in
          let t0 = Trace.now_ns () in
          let status, lines =
            run_child
              [ "--workload"; w; "--seed"; "1"; "--seconds"; "1"; "--smoke"; "--out"; out;
                "--trace"; (if trace then "1" else "0") ]
          in
          Printf.printf "%-26s %5.1f s\n%!" what (Trace.seconds_since t0);
          expect (what ^ ": exits 0") (status = Unix.WEXITED 0);
          (match List.rev lines with
          | last :: _ ->
            check_result ~what ~e2e:(not trace)
              ~declared:(if trace then spec.per_layer else spec.end_to_end)
              last
          | [] -> expect (what ^ ": prints a result") false);
          if trace then check_trace ~what (Printf.sprintf "perfbench/results/%s.trace.json" w))
        [ false; true ])
    spec.workloads;
  (* a per-layer metric no workload measures is a name mismatch *)
  let measured = Hashtbl.create 128 in
  In_channel.with_open_text out In_channel.input_lines
  |> List.iter (fun line ->
         match Json.parse line with
         | Ok r ->
           List.iter
             (fun n -> Option.iter (fun n -> Hashtbl.replace measured n ()) (Json.to_str n))
             (Option.value ~default:[] (Option.bind (Json.member "measured" r) Json.to_list))
         | Error _ -> ());
  List.iter
    (fun (m : Spec.metric) ->
      expect (m.name ^ " is measured by some workload") (Hashtbl.mem measured m.name))
    spec.per_layer;
  if !problems = 0 then (print_endline "smoke: PASS"; 0)
  else (Printf.printf "smoke: FAIL (%d problems)\n" !problems; 1)
