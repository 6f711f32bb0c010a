(* The repository benchmark.  Run from the repository root:

     bash perfbench/run.sh --workload table1_flow --seed 1 --seconds 20 --trace 0
     bash perfbench/run.sh compare A.jsonl B.jsonl
     bash perfbench/run.sh smoke

   BENCHMARK.json at the root is the registry: it names the workloads
   and every metric with its unit, and each run emits exactly the
   metrics it declares (end-to-end ones untraced, per-layer ones with
   --trace 1).  The last line of standard output is the run's result
   object; the same record, with the run's context, is appended to
   --out.  See perfbench/README.md. *)

module Json = Iddq_util.Json

let results_dir = "perfbench/results"

let commit () =
  let read p =
    match In_channel.with_open_text p In_channel.input_all with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
    Option.value ~default:"unknown" (read (".git/" ^ String.sub h 5 (String.length h - 5)))
  | Some h when String.length h = 40 -> h
  | _ -> "unknown"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let run_workload ~spec ~workload ~seed ~seconds ~trace ~smoke ~out =
  ensure_dir results_dir;
  let result, peak_rss_mb =
    let self () = Measure.peak_rss_mb "self" in
    match workload with
    | "table1_flow" ->
      let r = Flows.table1 ~smoke ~seed ~seconds ~trace in
      (r, self ())
    | "scale_ladder" ->
      let r = Flows.scale ~smoke ~seed ~seconds ~trace in
      (r, self ())
    | "atpg_testset" ->
      let r = Flows.atpg ~smoke ~seed ~seconds ~trace in
      (r, self ())
    | "serve_mixed" ->
      let socket = Printf.sprintf "%s/serve-%d.sock" results_dir (Unix.getpid ()) in
      Serve.run ~seed ~seconds ~trace ~socket
    | w ->
      failwith
        (Printf.sprintf "unknown workload %S (%s lists %s)" w Spec.path
           (String.concat ", " spec.Spec.workloads))
  in
  let produced =
    if trace then result.Measure.layer
    else
      result.Measure.e2e @ [ ("setup_s", result.Measure.setup_s); ("peak_rss_mb", peak_rss_mb) ]
  in
  let declared = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        (* every workload measures every end-to-end metric; a per-layer
           metric of a layer the workload does not run reads 0 *)
        let v = List.assoc_opt m.name produced in
        if not trace then Measure.check (m.name ^ " was measured") (v <> None);
        let v = Option.value ~default:0.0 v in
        Measure.check (m.name ^ " is finite") (Float.is_finite v);
        (m, v))
      declared
  in
  let correct = !Measure.failures = 0 in
  let failed = if correct then result.Measure.failed else max 1 result.Measure.failed in
  let metrics_json =
    Json.Obj
      (List.map
         (fun ((m : Spec.metric), v) ->
           (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ]))
         metrics)
  in
  let summary =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int result.Measure.attempted);
        ("failed", Json.Int failed);
        ("metrics", metrics_json);
      ]
  in
  let record =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("smoke", Json.Bool smoke);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ()));
        ("correct", Json.Bool correct);
        ("attempted", Json.Int result.Measure.attempted);
        ("failed", Json.Int failed);
        ("metrics", metrics_json);
        ( "measured",
          Json.List
            (List.filter_map
               (fun ((m : Spec.metric), _) ->
                 if List.mem_assoc m.name produced then Some (Json.String m.name) else None)
               metrics) );
      ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 out (fun oc ->
      output_string oc (Json.to_string record ^ "\n"));
  if trace then
    Out_channel.with_open_text
      (Printf.sprintf "%s/%s.trace.json" results_dir workload)
      (fun oc -> output_string oc (Json.to_string (Trace.to_chrome (Trace.spans ())) ^ "\n"));
  Printf.printf "%s seed %d: %d attempted, %d failed\n" workload seed result.Measure.attempted failed;
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "  %-36s %14.6g %s\n" m.name v m.unit_)
    metrics;
  print_endline (Json.to_string summary)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n\
    \       main.exe compare A.jsonl B.jsonl\n\
    \       main.exe smoke";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "serve-child"; socket ] -> Serve.child socket
  | _ :: [ "compare"; a; b ] -> exit (Compare.run (Spec.read ()) a b)
  | _ :: [ "smoke" ] -> exit (Smoke.run (Spec.read ()))
  | _ :: args ->
    let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref false in
    let smoke = ref false and out = ref (results_dir ^ "/runs.jsonl") in
    let rec parse = function
      | "--workload" :: w :: tl -> workload := Some w; parse tl
      | "--seed" :: n :: tl -> seed := int_of_string n; parse tl
      | "--seconds" :: s :: tl -> seconds := float_of_string s; parse tl
      | "--trace" :: t :: tl -> trace := t = "1"; parse tl
      | "--out" :: f :: tl -> out := f; parse tl
      | "--smoke" :: tl -> smoke := true; parse tl
      | [] -> ()
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    (match !workload with
    | None -> usage ()
    | Some workload ->
      run_workload ~spec:(Spec.read ()) ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace
        ~smoke:!smoke ~out:!out)
  | [] -> usage ()
