module Json = Iddq_util.Json
module Iscas = Iddq_netlist.Iscas
module Pipeline = Iddq.Pipeline
module Spec = Iddq_campaign.Spec
module Job_result = Iddq_campaign.Job_result
module Store = Iddq_campaign.Store
module Runner = Iddq_campaign.Runner
module Summary = Iddq_campaign.Summary
module Metrics = Iddq_util.Metrics

let with_temp_store f =
  let path = Filename.temp_file "iddq-campaign-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("floats", Json.List [ Json.Float 0.1; Json.Float 1.0e-9; Json.Float (-3.5) ]);
        ("string", Json.String "plain");
        ("nested", Json.Obj [ ("empty", Json.List []); ("o", Json.Obj []) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip equal" true (v = v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_float_fidelity () =
  (* floats must re-parse bit-exactly and stay floats (never collapse
     to Int), whatever the value *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "%.17g survives" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.fail "float did not re-parse as Float"
      | Error e -> Alcotest.fail e)
    [ 0.1; 1.0; -0.0; 2.32e-3; 1.08e6; 4.163915816625631e-9; Float.pi ];
  (* non-finite floats keep their value through the string sentinels
     rather than degrading to null *)
  List.iter
    (fun (f, sentinel) ->
      Alcotest.(check string)
        (Printf.sprintf "%h sentinel" f)
        sentinel
        (Json.to_string (Json.Float f));
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "%h decodes back" f)
          true
          (match Json.to_float v with
          | Some f' -> Int64.bits_of_float f = Int64.bits_of_float f'
          | None -> false)
      | Error e -> Alcotest.fail e)
    [
      (Float.nan, "\"nan\"");
      (Float.infinity, "\"inf\"");
      (Float.neg_infinity, "\"-inf\"");
    ];
  Alcotest.(check bool) "int stays int" true
    (Json.parse "12345" = Ok (Json.Int 12345))

let test_json_string_escapes () =
  List.iter
    (fun s ->
      match Json.parse (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> Alcotest.(check string) "escaped string" s s'
      | Ok _ -> Alcotest.fail "string did not re-parse as String"
      | Error e -> Alcotest.fail e)
    [ "quotes \" and \\ backslash"; "tab\tnewline\ncr\r"; "ctrl \x01\x1f"; "" ]

let test_json_parse_errors () =
  let is_error s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (is_error s))
    [
      ""; "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2";
      "{\"a\":1,}"; "nul"; "[1] trailing";
    ];
  (* accessors are total *)
  Alcotest.(check bool) "member miss" true (Json.member "x" (Json.Obj []) = None);
  Alcotest.(check bool) "to_int of string" true (Json.to_int (Json.String "3") = None);
  Alcotest.(check bool) "to_float of int" true
    (Json.to_float (Json.Int 3) = Some 3.0)

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let grid_spec =
  {
    Spec.default with
    Spec.circuits = [ "C17"; "C432" ];
    methods = [ Pipeline.Standard; Pipeline.Evolution ];
    seeds = [ 1; 2 ];
    module_sizes = [ None; Some 8 ];
  }

let test_spec_expansion () =
  let jobs = Spec.jobs grid_spec in
  Alcotest.(check int) "2x2x2x2 grid" 16 (List.length jobs);
  let ids = List.map (fun (j : Spec.job) -> j.Spec.id) jobs in
  Alcotest.(check int) "ids unique" 16 (List.length (List.sort_uniq compare ids));
  (* evolution is hoisted ahead of the standard job it feeds *)
  List.iter
    (fun (j : Spec.job) ->
      match j.Spec.depends_on with
      | None ->
        Alcotest.(check bool) "only standard depends" true
          (j.Spec.method_ = Pipeline.Evolution)
      | Some dep ->
        let dep_index =
          (List.find (fun (d : Spec.job) -> d.Spec.id = dep) jobs).Spec.index
        in
        Alcotest.(check bool) "dependency precedes dependent" true
          (dep_index < j.Spec.index))
    jobs

let test_spec_no_deps_variants () =
  (* without seed_reference_sizes, or without an evolution leg, no job
     waits on another *)
  let independent spec =
    List.for_all
      (fun (j : Spec.job) -> j.Spec.depends_on = None)
      (Spec.jobs spec)
  in
  Alcotest.(check bool) "seeding disabled" true
    (independent { grid_spec with Spec.seed_reference_sizes = false });
  Alcotest.(check bool) "no evolution leg" true
    (independent
       { grid_spec with Spec.methods = [ Pipeline.Standard; Pipeline.Random ] });
  (* duplicate grid entries collapse *)
  let doubled =
    { grid_spec with Spec.circuits = [ "C17"; "C17"; "C432" ]; seeds = [ 1; 1; 2 ] }
  in
  Alcotest.(check int) "duplicates collapsed" 16 (List.length (Spec.jobs doubled))

let test_spec_parse_roundtrip () =
  (match Spec.parse (Spec.to_string grid_spec) with
  | Ok s -> Alcotest.(check bool) "to_string/parse roundtrip" true (s = grid_spec)
  | Error e -> Alcotest.fail (Iddq_util.Io_error.to_string e));
  match
    Spec.parse
      "# comment\n\
       circuits = c17, C432\n\
       methods = evolution, standard\n\
       seeds = 3, 4\n\
       module-sizes = default, 12\n\
       max-generations = 50\n\
       timeout = 1.5\n"
  with
  | Ok s ->
    Alcotest.(check (list string)) "circuits" [ "C17"; "C432" ] s.Spec.circuits;
    Alcotest.(check bool) "sizes" true (s.Spec.module_sizes = [ None; Some 12 ]);
    Alcotest.(check bool) "generations" true (s.Spec.max_generations = Some 50);
    Alcotest.(check bool) "timeout" true (s.Spec.timeout = Some 1.5)
  | Error e -> Alcotest.fail (Iddq_util.Io_error.to_string e)

let test_spec_errors () =
  let rejects text =
    match Spec.parse text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown key" true (rejects "frobnicate = 3\n");
  Alcotest.(check bool) "unknown circuit" true (rejects "circuits = C999\n");
  Alcotest.(check bool) "unknown method" true (rejects "methods = magic\n");
  Alcotest.(check bool) "empty list" true (rejects "seeds =\n");
  Alcotest.(check bool) "validate empty circuits" true
    (Result.is_error (Spec.validate { grid_spec with Spec.circuits = [] }));
  Alcotest.(check bool) "validate bad size" true
    (Result.is_error
       (Spec.validate { grid_spec with Spec.module_sizes = [ Some 0 ] }))

(* ------------------------------------------------------------------ *)
(* Job_result codec                                                    *)
(* ------------------------------------------------------------------ *)

let sample_job () = List.hd (Spec.jobs { grid_spec with Spec.circuits = [ "C17" ] })

let sample_metrics () =
  let m = Iddq_util.Metrics.create () in
  Iddq_util.Metrics.record_full m ~gates:30 ~seconds:1e-4;
  Iddq_util.Metrics.snapshot m

let test_result_codec_roundtrip () =
  let job = sample_job () in
  let metrics = sample_metrics () in
  let check_roundtrip label r =
    match Job_result.of_line (Job_result.to_line r) with
    | Ok r' -> Alcotest.(check bool) (label ^ " roundtrip") true (r = r')
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  check_roundtrip "failed"
    (Job_result.failure ~job ~derived_seed:17 ~elapsed:0.25 ~metrics
       "Invalid_argument(\"weird \\ chars\n\ttab\")");
  check_roundtrip "timeout"
    (Job_result.timed_out ~job ~derived_seed:17 ~elapsed:2.0 ~metrics ~limit:1.5);
  (* a real Done record, through the pipeline *)
  let circuit = Option.get (Iscas.by_name "C17") in
  let run = Result.get_ok (Pipeline.run_result Pipeline.Standard circuit) in
  let done_ =
    Job_result.of_run ~job ~derived_seed:17 ~elapsed:0.1 ~metrics run
  in
  check_roundtrip "done" done_;
  Alcotest.(check bool) "done is_ok" true (Job_result.is_ok done_);
  Alcotest.(check bool) "to_line is one line" true
    (not (String.contains (Job_result.to_line done_) '\n'))

let test_result_bad_lines () =
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" line) true
        (Result.is_error (Job_result.of_line line)))
    [ ""; "{}"; "[1,2]"; "{\"job\":\"x\""; "not json at all" ]

(* Stores written before the counters had one registry spell the
   metrics object with short keys; the newest of those stores carries
   all 21, the oldest only the eight cost-evaluation ones. *)
let legacy_metrics =
  "{\"full\":3,\"delta\":5,\"hits\":2,\"moves\":7,\"gates_full\":90,\
   \"gates_delta\":11,\"sec_full\":0.5,\"sec_delta\":0.25,\"sim_blocks\":4,\
   \"sim_fault_blocks\":6,\"sim_dropped\":1,\"sim_steals\":2,\"requests\":9,\
   \"requests_failed\":1,\"sec_requests\":0.125,\"srv_hits\":8,\
   \"srv_misses\":3,\"srv_evictions\":1,\"srv_sheds\":2,\
   \"srv_queue_peak\":5,\"srv_wbuf_peak\":4096}"

let oldest_metrics =
  "{\"full\":1,\"delta\":0,\"hits\":4,\"moves\":0,\"gates_full\":6,\
   \"gates_delta\":0,\"sec_full\":0.001,\"sec_delta\":0.0}"

(* [r]'s line with its metrics object replaced by [metrics] (JSON text) *)
let line_with_metrics r metrics =
  match (Job_result.to_json r, Json.parse metrics) with
  | Json.Obj kvs, Ok m ->
    Json.to_string
      (Json.Obj
         (List.map (fun (k, v) -> if k = "metrics" then (k, m) else (k, v)) kvs))
  | _, Error e -> Alcotest.fail e
  | _ -> Alcotest.fail "record is not an object"

let decoded_metrics line =
  match Job_result.of_line line with
  | Ok r -> r.Job_result.metrics
  | Error e -> Alcotest.failf "legacy line rejected: %s" e

let test_result_legacy_metrics () =
  let r =
    Job_result.failure ~job:(sample_job ()) ~derived_seed:3 ~elapsed:0.5
      ~metrics:(sample_metrics ()) "old"
  in
  let m = decoded_metrics (line_with_metrics r legacy_metrics) in
  List.iter
    (fun (c, want) ->
      Alcotest.(check int) (Metrics.name c) want (Metrics.get m c))
    Metrics.
      [
        (full_evals, 3);
        (delta_evals, 5);
        (eval_cache_hits, 2);
        (moves, 7);
        (gates_full, 90);
        (gates_delta, 11);
        (sim_blocks, 4);
        (sim_fault_blocks, 6);
        (sim_faults_dropped, 1);
        (sim_steals, 2);
        (requests, 9);
        (requests_failed, 1);
        (cache_hits, 8);
        (cache_misses, 3);
        (cache_evictions, 1);
        (sheds, 2);
        (queue_peak, 5);
        (wbuf_peak, 4096);
      ];
  List.iter
    (fun (c, want) ->
      Alcotest.(check (float 0.0)) (Metrics.name c) want (Metrics.seconds m c))
    Metrics.
      [ (seconds_full, 0.5); (seconds_delta, 0.25); (seconds_requests, 0.125) ];
  let old = decoded_metrics (line_with_metrics r oldest_metrics) in
  Alcotest.(check int) "oldest: full" 1 (Metrics.get old Metrics.full_evals);
  Alcotest.(check int) "oldest: hits" 4 (Metrics.get old Metrics.eval_cache_hits);
  Alcotest.(check (float 0.0)) "oldest: seconds" 0.001
    (Metrics.seconds old Metrics.seconds_full);
  List.iter
    (fun c ->
      Alcotest.(check int)
        ("oldest: absent " ^ Metrics.name c)
        0 (Metrics.get old c))
    Metrics.
      [
        sim_blocks;
        sim_fault_blocks;
        sim_faults_dropped;
        sim_steals;
        requests;
        requests_failed;
        seconds_requests;
        cache_hits;
        cache_misses;
        cache_evictions;
        sheds;
        queue_peak;
        wbuf_peak;
      ];
  (* a legacy record re-encodes under the canonical names, losslessly *)
  let legacy =
    Result.get_ok (Job_result.of_line (line_with_metrics r legacy_metrics))
  in
  Alcotest.(check bool) "legacy record re-encodes losslessly" true
    (Job_result.of_line (Job_result.to_line legacy) = Ok legacy)

let test_result_bad_metrics () =
  let r =
    Job_result.failure ~job:(sample_job ()) ~derived_seed:3 ~elapsed:0.5
      ~metrics:(sample_metrics ()) "bad"
  in
  List.iter
    (fun metrics ->
      Alcotest.(check bool) (Printf.sprintf "metrics %s rejected" metrics) true
        (Result.is_error (Job_result.of_line (line_with_metrics r metrics))))
    [
      "[1,2]";
      "5";
      "null";
      "\"full\"";
      "{\"full\":\"three\"}";
      "{\"full_evals\":1.5}";
      "{\"moves\":true}";
      "{\"sec_full\":\"soon\"}";
      "{\"seconds_full\":[0.5]}";
      "{\"srv_queue_peak\":2.0}";
    ]

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let open_store path =
  match Store.open_ path with
  | Ok s -> s
  | Error e -> Alcotest.failf "Store.open_: %s" (Iddq_util.Io_error.to_string e)

let test_store_latest_wins () =
  with_temp_store (fun path ->
      let job = sample_job () in
      let metrics = sample_metrics () in
      let failed =
        Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "boom"
      in
      let circuit = Option.get (Iscas.by_name "C17") in
      let ok =
        Job_result.of_run ~job ~derived_seed:1 ~elapsed:0.0 ~metrics
          (Result.get_ok (Pipeline.run_result Pipeline.Standard circuit))
      in
      let s = open_store path in
      Store.append s failed;
      Store.append s ok;
      Store.close s;
      let s = open_store path in
      Alcotest.(check int) "one id" 1 (Store.count s);
      Alcotest.(check int) "nothing dropped" 0 (Store.dropped s);
      (match Store.find s job.Spec.id with
      | Some r -> Alcotest.(check bool) "last line wins" true (Job_result.is_ok r)
      | None -> Alcotest.fail "record lost");
      Store.close s)

let test_store_tolerates_truncation () =
  with_temp_store (fun path ->
      let job = sample_job () in
      let metrics = sample_metrics () in
      let s = open_store path in
      Store.append s
        (Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "kept");
      Store.close s;
      (* simulate a kill mid-write: a half line with no newline *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"job\":\"C17:evolution";
      close_out oc;
      let s = open_store path in
      Alcotest.(check int) "good record kept" 1 (Store.count s);
      Alcotest.(check int) "torn line dropped" 1 (Store.dropped s);
      (* appending after a torn tail still yields parseable lines *)
      Store.append s
        (Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "after");
      Store.close s;
      let s = open_store path in
      (match Store.find s job.Spec.id with
      | Some { Job_result.status = Job_result.Failed m; _ } ->
        Alcotest.(check string) "append after tear wins" "after" m
      | _ -> Alcotest.fail "lost the post-tear record");
      Store.close s)

(* Runs [f] while a watchdog domain guards the FIFO at [path]: past
   [seconds] it keeps opening the FIFO read-write — on Linux that never
   blocks and releases any open waiting for a peer — until [f] returns.
   A hang in [f] becomes a late return; the flag reports it. *)
let with_fifo_watchdog ?(seconds = 5.0) path f =
  let finished = Atomic.make false and fired = Atomic.make false in
  let deadline = Unix.gettimeofday () +. seconds in
  let dog =
    Domain.spawn (fun () ->
        while not (Atomic.get finished) do
          Unix.sleepf 0.02;
          if Unix.gettimeofday () > deadline then begin
            Atomic.set fired true;
            match Unix.openfile path [ Unix.O_RDWR; Unix.O_NONBLOCK ] 0 with
            | fd -> Unix.close fd
            | exception Unix.Unix_error _ -> ()
          end
        done)
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Domain.join dog)
      f
  in
  (result, Atomic.get fired)

(* A FIFO store path is refused before any read: opening it for
   reading would wait for a writer that never comes. *)
let test_store_refuses_fifo () =
  let path = Filename.temp_file "iddq-campaign-fifo" ".jsonl" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let opened, fired = with_fifo_watchdog path (fun () -> Store.open_ path) in
      Alcotest.(check bool) "returns before the watchdog" false fired;
      match opened with
      | Ok s ->
        Store.close s;
        Alcotest.fail "a FIFO opened as a store"
      | Error e ->
        Alcotest.(check string) "typed error"
          (path ^ ": not a regular file")
          (Iddq_util.Io_error.to_string e))

let test_result_nonfinite_roundtrip () =
  (* measurements can go non-finite (a degenerate partition's cost);
     the sentinel encoding must carry them through bit-exactly *)
  let job = sample_job () in
  let metrics = sample_metrics () in
  let run =
    {
      Iddq.Report.modules = 2;
      module_sizes = [ 3; 3 ];
      generations = 0;
      cost = Float.nan;
      feasible = false;
      sensor_area = Float.infinity;
      nominal_delay = Float.neg_infinity;
      bic_delay = 0.0;
      test_time_per_vector = 0.0;
      min_discriminability = 0.0;
    }
  in
  let r =
    {
      (Job_result.failure ~job ~derived_seed:3 ~elapsed:0.0 ~metrics "nf")
      with
      Job_result.status = Job_result.Done run;
    }
  in
  match Job_result.of_line (Job_result.to_line r) with
  | Error e -> Alcotest.failf "non-finite record rejected: %s" e
  | Ok r' ->
    (* structural compare: nan = nan under [compare] *)
    Alcotest.(check bool) "bit-exact through codec" true (compare r r' = 0)

(* Satellite: any byte-truncation point loses at most the record being
   written; [dropped] counts the torn tail; a later append never glues
   onto it. *)
let qcheck_store_torn_tail =
  QCheck.Test.make ~name:"store: truncation loses at most the final record"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 10_000_000))
    (fun (n, cut_raw) ->
      with_temp_store (fun path ->
          let metrics = sample_metrics () in
          let jobs =
            Spec.jobs grid_spec |> List.filteri (fun i _ -> i <= n)
          in
          if List.length jobs < n + 1 then
            QCheck.Test.fail_report "grid_spec has too few jobs";
          let record job msg =
            Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics msg
          in
          let written, fresh_job =
            match List.filteri (fun i _ -> i < n) jobs, List.nth jobs n with
            | w, f -> List.map (fun j -> record j "w") w, f
          in
          Sys.remove path;
          let s = open_store path in
          List.iter (Store.append s) written;
          Store.close s;
          let content =
            match Iddq_util.Io.read_file path with
            | Ok c -> c
            | Error e ->
              QCheck.Test.fail_reportf "read back: %s"
                (Iddq_util.Io_error.to_string e)
          in
          let size = String.length content in
          let cut = cut_raw mod (size + 1) in
          let truncated = String.sub content 0 cut in
          let full_lines =
            String.fold_left
              (fun acc ch -> if ch = '\n' then acc + 1 else acc)
              0 truncated
          in
          (* a cut just before a newline leaves the last record intact,
             and the store keeps it *)
          let intact_tail = cut < size && content.[cut] = '\n' in
          let partial = cut > 0 && truncated.[cut - 1] <> '\n' && not intact_tail in
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd cut;
          Unix.close fd;
          let s = open_store path in
          let kept = full_lines + if intact_tail then 1 else 0 in
          let survived = Store.count s = kept in
          let counted = Store.dropped s = if partial then 1 else 0 in
          (* the torn tail must never swallow a subsequent append *)
          Store.append s (record fresh_job "appended");
          Store.close s;
          let s = open_store path in
          let appended_back =
            match Store.find s fresh_job.Spec.id with
            | Some { Job_result.status = Job_result.Failed m; _ } ->
              m = "appended"
            | _ -> false
          in
          let recount = Store.count s = kept + 1 in
          Store.close s;
          survived && counted && appended_back && recount))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let tiny_spec =
  {
    Spec.default with
    Spec.circuits = [ "C17"; "C432" ];
    methods = [ Pipeline.Evolution; Pipeline.Standard ];
    seeds = [ 1; 2 ];
    max_generations = Some 20;
  }

let run_spec ?domains ?resolve path spec =
  let store = open_store path in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      match Runner.run ?domains ?resolve ~store spec with
      | Ok o -> o
      | Error e -> Alcotest.fail (Runner.error_to_string e))

let signature (results : Job_result.t list) =
  results
  |> List.map (fun r -> Job_result.to_line (Job_result.strip_timing r))
  |> List.sort compare

let test_runner_completes_and_resumes () =
  with_temp_store (fun path ->
      let first = run_spec ~domains:2 path tiny_spec in
      Alcotest.(check int) "all executed" 8 first.Runner.executed;
      Alcotest.(check int) "all ok" 8 first.Runner.ok;
      Alcotest.(check int) "none skipped" 0 first.Runner.skipped;
      let again = run_spec ~domains:2 path tiny_spec in
      Alcotest.(check int) "resume executes nothing" 0 again.Runner.executed;
      Alcotest.(check int) "resume skips all" 8 again.Runner.skipped;
      Alcotest.(check (list string)) "resume returns identical results"
        (signature first.Runner.results)
        (signature again.Runner.results))

let test_runner_deterministic_across_domains () =
  with_temp_store (fun path1 ->
      with_temp_store (fun path3 ->
          let r1 = run_spec ~domains:1 path1 tiny_spec in
          let r3 = run_spec ~domains:3 path3 tiny_spec in
          Alcotest.(check (list string))
            "1 domain and 3 domains agree modulo timing"
            (signature r1.Runner.results)
            (signature r3.Runner.results)))

let test_runner_seeds_standard_from_evolution () =
  with_temp_store (fun path ->
      let outcome = run_spec ~domains:2 path tiny_spec in
      let find method_ circuit =
        List.find
          (fun (r : Job_result.t) ->
            r.Job_result.method_ = method_
            && r.Job_result.circuit = circuit
            && r.Job_result.seed = 1)
          outcome.Runner.results
      in
      let sizes method_ =
        match Job_result.run (find method_ "C432") with
        | Some run -> List.sort compare run.Iddq.Report.module_sizes
        | None -> Alcotest.fail "job did not finish"
      in
      Alcotest.(check (list int)) "standard runs at evolution's sizes"
        (sizes Pipeline.Evolution) (sizes Pipeline.Standard))

let test_runner_derived_seeds () =
  let jobs = Spec.jobs tiny_spec in
  List.iter
    (fun (j : Spec.job) ->
      Alcotest.(check bool) "non-negative" true (Runner.derived_seed j >= 0);
      Alcotest.(check int) "stable" (Runner.derived_seed j) (Runner.derived_seed j))
    jobs;
  let seeds = List.map Runner.derived_seed jobs in
  Alcotest.(check int) "all distinct" (List.length jobs)
    (List.length (List.sort_uniq compare seeds));
  (* pinned values: stored campaigns and service answers are keyed by
     them, so the derivation must never drift *)
  Alcotest.(check (pair string int)) "pinned job seed"
    ("C17:evolution:s1:m-", 221771008671138371)
    (let j = List.hd jobs in
     (j.Spec.id, Runner.derived_seed j));
  Alcotest.(check int) "pinned request seed" 1574819211948365740
    (Iddq_util.Rng.keyed_seed ~key:"C17:vectors" ~seed:1)

let test_runner_isolates_crash_and_recovers () =
  (* a resolver that raises for one circuit: those jobs record Failed,
     the rest complete; a later run with a healthy resolver re-runs
     only the failures and converges to the uninterrupted aggregate *)
  let crashing name =
    if name = "C432" then failwith "injected resolver crash"
    else Iscas.by_name name
  in
  with_temp_store (fun broken_path ->
      with_temp_store (fun clean_path ->
          let broken = run_spec ~domains:2 ~resolve:crashing broken_path tiny_spec in
          Alcotest.(check int) "campaign survives the crashes" 8
            broken.Runner.executed;
          Alcotest.(check int) "C432 jobs failed" 4 broken.Runner.failed;
          Alcotest.(check int) "C17 jobs unaffected" 4 broken.Runner.ok;
          List.iter
            (fun (r : Job_result.t) ->
              match r.Job_result.status with
              | Job_result.Failed msg ->
                Alcotest.(check bool) "exception text recorded" true
                  (String.length msg > 0)
              | _ -> ())
            broken.Runner.results;
          (* recovery run: only the 4 failures re-execute *)
          let recovered = run_spec ~domains:2 broken_path tiny_spec in
          Alcotest.(check int) "only failures re-run" 4 recovered.Runner.executed;
          Alcotest.(check int) "healthy jobs resumed" 4 recovered.Runner.skipped;
          Alcotest.(check int) "all ok after recovery" 8 recovered.Runner.ok;
          let clean = run_spec ~domains:2 clean_path tiny_spec in
          Alcotest.(check (list string)) "same results as uninterrupted"
            (signature clean.Runner.results)
            (signature recovered.Runner.results);
          Alcotest.(check bool) "same Table-1 aggregate" true
            (Summary.table1_rows recovered.Runner.results
            = Summary.table1_rows clean.Runner.results)))

let test_runner_resumes_after_torn_store () =
  with_temp_store (fun torn_path ->
      with_temp_store (fun clean_path ->
          let clean = run_spec ~domains:2 clean_path tiny_spec in
          let _ = run_spec ~domains:2 torn_path tiny_spec in
          (* kill simulation: chop the file mid-way through its last line *)
          let size = (Unix.stat torn_path).Unix.st_size in
          let fd = Unix.openfile torn_path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (size - 40);
          Unix.close fd;
          let resumed = run_spec ~domains:2 torn_path tiny_spec in
          Alcotest.(check bool) "only the torn job re-ran" true
            (resumed.Runner.executed >= 1 && resumed.Runner.executed < 8);
          Alcotest.(check int) "complete again" 8 resumed.Runner.ok;
          Alcotest.(check (list string)) "aggregate matches uninterrupted"
            (signature clean.Runner.results)
            (signature resumed.Runner.results)))

let test_runner_timeout_records_and_reruns () =
  let spec = { tiny_spec with Spec.circuits = [ "C17" ]; Spec.timeout = Some 0.0 } in
  with_temp_store (fun path ->
      let strict = run_spec ~domains:2 path spec in
      Alcotest.(check int) "every job over a zero budget" 4
        strict.Runner.timed_out;
      Alcotest.(check int) "none ok" 0 strict.Runner.ok;
      (* timeouts are not checkpoints: lifting the budget re-runs them *)
      let relaxed = run_spec ~domains:2 path { spec with Spec.timeout = None } in
      Alcotest.(check int) "timed-out jobs re-ran" 4 relaxed.Runner.executed;
      Alcotest.(check int) "now ok" 4 relaxed.Runner.ok)

let test_runner_rejects_invalid_spec () =
  with_temp_store (fun path ->
      let store = open_store path in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          match
            Runner.run ~store { tiny_spec with Spec.circuits = [ "C999" ] }
          with
          | Ok _ -> Alcotest.fail "invalid spec accepted"
          | Error (Runner.Invalid_spec msg) ->
            Alcotest.(check bool)
              "error names the circuit" true
              (let re = "C999" in
               let len = String.length re in
               let n = String.length msg in
               let rec contains i =
                 i + len <= n && (String.sub msg i len = re || contains (i + 1))
               in
               contains 0)
          | Error e -> Alcotest.fail (Runner.error_to_string e)))

(* A record that raises — a store closed under the runner, or an
   [on_result] that throws on its first fresh result — ends the
   campaign with [Record_failed], at one domain and at two, and within
   a deadline: the exception neither escapes [Runner.run] nor leaves
   the record lock held for the other domain to wait on forever. *)
let test_runner_reports_failed_record () =
  let spec =
    {
      Spec.default with
      Spec.circuits = [ "C880" ];
      methods = [ Pipeline.Evolution ];
      seeds = [ 1; 2; 3; 4 ];
      max_generations = Some 3;
    }
  in
  let closed_store store = Store.close store; fun _ _ ~fresh:_ -> () in
  let raising_observer _store =
    fun _ _ ~fresh -> if fresh then failwith "injected on_result failure"
  in
  List.iter
    (fun (name, make_observer) ->
      List.iter
        (fun domains ->
          with_temp_store (fun path ->
              let store = open_store path in
              let on_result = make_observer store in
              let answer = Atomic.make None in
              let runner =
                Domain.spawn (fun () ->
                    Atomic.set answer
                      (Some
                         (try Ok (Runner.run ~domains ~on_result ~store spec)
                          with e -> Error e)))
              in
              let deadline = Unix.gettimeofday () +. 120.0 in
              while Atomic.get answer = None && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.01
              done;
              let what = Printf.sprintf "%s at %d domains" name domains in
              match Atomic.get answer with
              | None -> Alcotest.failf "%s: Runner.run did not return" what
              | Some result -> (
                Domain.join runner;
                (try Store.close store with Sys_error _ -> ());
                match result with
                | Ok (Error (Runner.Record_failed _)) -> ()
                | Ok (Ok _) -> Alcotest.failf "%s: answered Ok" what
                | Ok (Error e) ->
                  Alcotest.failf "%s: %s" what (Runner.error_to_string e)
                | Error e ->
                  Alcotest.failf "%s: raised %s" what (Printexc.to_string e))))
        [ 1; 2 ])
    [ ("closed store", closed_store); ("raising on_result", raising_observer) ]

(* Legacy spelling of a canonical metrics object: the keys stores
   wrote before the counters had one registry. *)
let legacy_keys =
  [
    ("full_evals", "full");
    ("delta_evals", "delta");
    ("eval_cache_hits", "hits");
    ("seconds_full", "sec_full");
    ("seconds_delta", "sec_delta");
    ("sim_faults_dropped", "sim_dropped");
    ("seconds_requests", "sec_requests");
    ("cache_hits", "srv_hits");
    ("cache_misses", "srv_misses");
    ("cache_evictions", "srv_evictions");
    ("sheds", "srv_sheds");
    ("queue_peak", "srv_queue_peak");
    ("wbuf_peak", "srv_wbuf_peak");
  ]

let to_legacy_metrics = function
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           (Option.value ~default:k (List.assoc_opt k legacy_keys), v))
         kvs)
  | j -> j

let test_runner_resumes_mixed_format_store () =
  with_temp_store (fun path ->
      let spec = { tiny_spec with Spec.circuits = [ "C17" ] } in
      let first = run_spec ~domains:2 path spec in
      Alcotest.(check int) "all executed" 4 first.Runner.executed;
      (* rewrite every other line in the old key spelling *)
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      let rewritten =
        List.mapi
          (fun i line ->
            if i mod 2 = 1 then line
            else
              match Json.parse line with
              | Ok (Json.Obj kvs) ->
                Json.to_string
                  (Json.Obj
                     (List.map
                        (fun (k, v) ->
                          if k = "metrics" then (k, to_legacy_metrics v) else (k, v))
                        kvs))
              | _ -> Alcotest.fail "store line is not an object")
          lines
      in
      Alcotest.(check bool) "some lines rewritten" true (rewritten <> lines);
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) rewritten);
      let again = run_spec ~domains:2 path spec in
      Alcotest.(check int) "resume executes nothing" 0 again.Runner.executed;
      Alcotest.(check int) "resume skips all" 4 again.Runner.skipped;
      Alcotest.(check (list string)) "mixed store decodes to the same results"
        (signature first.Runner.results)
        (signature again.Runner.results))

(* A C17 store in the format the campaign store has written since the
   metrics registry: one Done, one failed and one timed-out record,
   byte for byte.  Resuming it must adopt the Done record with its
   measurements as written and re-run the other two. *)
let pinned_c17_lines =
  [
    "{\"job\":\"C17:evolution:s1:m3\",\"circuit\":\"C17\",\
     \"method\":\"evolution\",\"seed\":1,\
     \"derived_seed\":3247821329290974644,\"module_size\":3,\
     \"status\":\"ok\",\"elapsed\":0.001785738,\"modules\":1,\
     \"generations\":20,\"module_sizes\":[6],\
     \"cost\":144.98022975658031,\"feasible\":true,\"area\":140000.0,\
     \"nominal_delay\":2.4000000000000004e-09,\
     \"bic_delay\":2.4005824832922974e-09,\
     \"test_time\":4.16391581662563e-09,\
     \"min_disc\":1388.8888888888889,\"metrics\":{\"full_evals\":5,\
     \"delta_evals\":36,\"eval_cache_hits\":684,\"moves\":63,\
     \"gates_full\":30,\"gates_delta\":216,\"seconds_full\":5.4865e-05,\
     \"seconds_delta\":0.0001382,\"sim_blocks\":0,\
     \"sim_fault_blocks\":0,\"sim_faults_dropped\":0,\"sim_steals\":0,\
     \"requests\":0,\"requests_failed\":0,\"seconds_requests\":0.0,\
     \"cache_hits\":0,\"cache_misses\":0,\"cache_evictions\":0,\
     \"sheds\":0,\"queue_peak\":0,\"wbuf_peak\":0}}";
    "{\"job\":\"C17:standard:s1:m3\",\"circuit\":\"C17\",\
     \"method\":\"standard\",\"seed\":1,\
     \"derived_seed\":2555741442153596899,\"module_size\":3,\
     \"status\":\"failed\",\
     \"error\":\"Failure(\\\"injected resolver crash\\\")\",\
     \"elapsed\":3.5e-07,\"modules\":0,\"generations\":0,\
     \"module_sizes\":[],\"cost\":0.0,\"feasible\":false,\"area\":0.0,\
     \"nominal_delay\":0.0,\"bic_delay\":0.0,\"test_time\":0.0,\
     \"min_disc\":0.0,\"metrics\":{\"full_evals\":0,\"delta_evals\":0,\
     \"eval_cache_hits\":0,\"moves\":0,\"gates_full\":0,\
     \"gates_delta\":0,\"seconds_full\":0.0,\"seconds_delta\":0.0,\
     \"sim_blocks\":0,\"sim_fault_blocks\":0,\"sim_faults_dropped\":0,\
     \"sim_steals\":0,\"requests\":0,\"requests_failed\":0,\
     \"seconds_requests\":0.0,\"cache_hits\":0,\"cache_misses\":0,\
     \"cache_evictions\":0,\"sheds\":0,\"queue_peak\":0,\
     \"wbuf_peak\":0}}";
    "{\"job\":\"C17:annealing:s1:m3\",\"circuit\":\"C17\",\
     \"method\":\"annealing\",\"seed\":1,\
     \"derived_seed\":4411771995284001281,\"module_size\":3,\
     \"status\":\"timeout\",\"timeout_s\":0.0,\"elapsed\":0.042971936,\
     \"modules\":0,\"generations\":0,\"module_sizes\":[],\"cost\":0.0,\
     \"feasible\":false,\"area\":0.0,\"nominal_delay\":0.0,\
     \"bic_delay\":0.0,\"test_time\":0.0,\"min_disc\":0.0,\
     \"metrics\":{\"full_evals\":2,\"delta_evals\":19924,\
     \"eval_cache_hits\":0,\"moves\":39840,\"gates_full\":12,\
     \"gates_delta\":119544,\"seconds_full\":2.583e-06,\
     \"seconds_delta\":0.019718952,\"sim_blocks\":0,\
     \"sim_fault_blocks\":0,\"sim_faults_dropped\":0,\"sim_steals\":0,\
     \"requests\":0,\"requests_failed\":0,\"seconds_requests\":0.0,\
     \"cache_hits\":0,\"cache_misses\":0,\"cache_evictions\":0,\
     \"sheds\":0,\"queue_peak\":0,\"wbuf_peak\":0}}";
  ]

let pinned_c17_spec =
  {
    Spec.default with
    Spec.circuits = [ "C17" ];
    methods = [ Pipeline.Evolution; Pipeline.Standard; Pipeline.Annealing ];
    seeds = [ 1 ];
    module_sizes = [ Some 3 ];
    max_generations = Some 20;
  }

let test_runner_resumes_pinned_store () =
  with_temp_store (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) pinned_c17_lines);
      let adopted = ref [] and ran = ref [] in
      let on_result (job : Spec.job) _ ~fresh =
        if fresh then ran := job.Spec.id :: !ran
        else adopted := job.Spec.id :: !adopted
      in
      let store = open_store path in
      let outcome =
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () ->
            match Runner.run ~on_result ~store pinned_c17_spec with
            | Ok o -> o
            | Error e -> Alcotest.fail (Runner.error_to_string e))
      in
      Alcotest.(check (list string)) "the Done job is adopted"
        [ "C17:evolution:s1:m3" ] !adopted;
      Alcotest.(check (list string)) "the failed and timed-out jobs re-run"
        [ "C17:annealing:s1:m3"; "C17:standard:s1:m3" ]
        (List.sort compare !ran);
      Alcotest.(check int) "skipped" 1 outcome.Runner.skipped;
      Alcotest.(check int) "executed" 2 outcome.Runner.executed;
      Alcotest.(check int) "all ok" 3 outcome.Runner.ok;
      let stored =
        match Json.parse (List.hd pinned_c17_lines) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let num key =
        match Option.bind (Json.member key stored) Json.to_float with
        | Some v -> v
        | None -> Alcotest.failf "pinned line lacks %S" key
      in
      let agg m =
        List.find
          (fun (a : Summary.method_agg) -> a.Summary.method_ = m)
          (Summary.by_method outcome.Runner.results)
      in
      let evo = agg Pipeline.Evolution in
      let close label want got =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.17g = %.17g" label want got)
          true
          (Float.abs (got -. want) <= 1e-12 *. Float.abs want)
      in
      Alcotest.(check (float 0.0)) "modules as written" (num "modules")
        evo.Summary.mean_modules;
      Alcotest.(check (float 0.0)) "cost as written" (num "cost")
        evo.Summary.mean_cost;
      Alcotest.(check (float 0.0)) "area as written" (num "area")
        evo.Summary.mean_area;
      Alcotest.(check (float 0.0)) "elapsed as written" (num "elapsed")
        evo.Summary.mean_elapsed;
      let nominal = num "nominal_delay" in
      close "delay overhead as written"
        (100.0 *. (num "bic_delay" -. nominal) /. nominal)
        evo.Summary.mean_delay_overhead_pct;
      close "test overhead as written"
        (100.0 *. (num "test_time" -. nominal) /. nominal)
        evo.Summary.mean_test_overhead_pct;
      (* the re-run standard job takes the stored evolution's one
         6-gate module as its reference, not the two 3-gate modules of
         the default sizes *)
      Alcotest.(check (float 0.0)) "standard at the stored sizes" 1.0
        (agg Pipeline.Standard).Summary.mean_modules)

let tests =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float fidelity" `Quick test_json_float_fidelity;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "spec expansion" `Quick test_spec_expansion;
    Alcotest.test_case "spec dependency variants" `Quick test_spec_no_deps_variants;
    Alcotest.test_case "spec parse roundtrip" `Quick test_spec_parse_roundtrip;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "result codec roundtrip" `Quick test_result_codec_roundtrip;
    Alcotest.test_case "result bad lines" `Quick test_result_bad_lines;
    Alcotest.test_case "store latest wins" `Quick test_store_latest_wins;
    Alcotest.test_case "store tolerates truncation" `Quick
      test_store_tolerates_truncation;
    Alcotest.test_case "result non-finite roundtrip" `Quick
      test_result_nonfinite_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_store_torn_tail;
    Alcotest.test_case "store refuses a FIFO" `Quick test_store_refuses_fifo;
    Alcotest.test_case "runner completes and resumes" `Slow
      test_runner_completes_and_resumes;
    Alcotest.test_case "runner deterministic across domains" `Slow
      test_runner_deterministic_across_domains;
    Alcotest.test_case "runner seeds standard from evolution" `Slow
      test_runner_seeds_standard_from_evolution;
    Alcotest.test_case "runner derived seeds" `Quick test_runner_derived_seeds;
    Alcotest.test_case "runner isolates crashes" `Slow
      test_runner_isolates_crash_and_recovers;
    Alcotest.test_case "runner resumes after torn store" `Slow
      test_runner_resumes_after_torn_store;
    Alcotest.test_case "runner timeout semantics" `Slow
      test_runner_timeout_records_and_reruns;
    Alcotest.test_case "runner rejects invalid spec" `Quick
      test_runner_rejects_invalid_spec;
    Alcotest.test_case "runner reports a failed record" `Slow
      test_runner_reports_failed_record;
    Alcotest.test_case "result legacy metrics" `Quick test_result_legacy_metrics;
    Alcotest.test_case "result bad metrics" `Quick test_result_bad_metrics;
    Alcotest.test_case "runner resumes mixed-format store" `Slow
      test_runner_resumes_mixed_format_store;
    Alcotest.test_case "runner resumes a pinned C17 store" `Quick
      test_runner_resumes_pinned_store;
  ]
