(* The resident service: framing, protocol codec, session cache,
   and the socket transport with misbehaving clients. *)

module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Io = Iddq_util.Io
module Rng = Iddq_util.Rng
module Frame = Iddq_server.Frame
module Protocol = Iddq_server.Protocol
module Service = Iddq_server.Service
module Server = Iddq_server.Server
module Client = Iddq_server.Client
module Cache = Iddq_server.Cache
module Iscas = Iddq_netlist.Iscas
module Pipeline = Iddq.Pipeline
module Spec = Iddq_campaign.Spec
module Store = Iddq_campaign.Store
module Runner = Iddq_campaign.Runner

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) ( = )

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let drain decoder =
  let rec go acc =
    match Frame.next decoder with
    | None -> List.rev acc
    | Some (Frame.Oversized _ as e) -> List.rev (e :: acc)  (* terminal *)
    | Some e -> go (e :: acc)
  in
  go []

let test_frame_roundtrip () =
  let values =
    [
      Json.Obj [ ("op", Json.String "metrics") ];
      Json.Int 42;
      Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ];
      Json.String "";
    ]
  in
  let d = Frame.create () in
  Frame.feed d (String.concat "" (List.map Frame.encode values));
  Alcotest.(check (list json))
    "all frames decode in order" values
    (List.filter_map
       (function Frame.Frame j -> Some j | _ -> None)
       (drain d))

let qcheck_frame_split_boundaries =
  QCheck.Test.make
    ~name:"frame stream decodes identically under any chunking" ~count:200
    QCheck.(pair (small_list small_int) (int_range 1 13))
    (fun (ids, chunk) ->
      let values =
        List.map
          (fun n ->
            Json.Obj
              [ ("id", Json.Int n); ("tag", Json.String (string_of_int n)) ])
          ids
      in
      let stream = String.concat "" (List.map Frame.encode values) in
      let d = Frame.create () in
      let decoded = ref [] in
      let len = String.length stream in
      let pos = ref 0 in
      while !pos < len do
        let n = min chunk (len - !pos) in
        Frame.feed d (String.sub stream !pos n);
        pos := !pos + n;
        decoded := !decoded @ drain d
      done;
      List.for_all (function Frame.Frame _ -> true | _ -> false) !decoded
      && List.filter_map
           (function Frame.Frame j -> Some j | _ -> None)
           !decoded
         = values
      && Frame.buffered d = 0)

let test_frame_malformed_stays_in_sync () =
  let d = Frame.create () in
  let valid = Json.Obj [ ("op", Json.String "shutdown") ] in
  Frame.feed d (Frame.encode_payload "{not json");
  Frame.feed d (Frame.encode valid);
  match drain d with
  | [ Frame.Malformed _; Frame.Frame j ] ->
    Alcotest.check json "frame after malformed still decodes" valid j
  | events ->
    Alcotest.failf "expected [Malformed; Frame], got %d events"
      (List.length events)

let test_frame_oversized_poisons () =
  let d = Frame.create ~max_frame:16 () in
  Frame.feed d (Frame.encode_payload (String.make 64 'x'));
  (match Frame.next d with
  | Some (Frame.Oversized 64) -> ()
  | _ -> Alcotest.fail "expected Oversized 64");
  Frame.feed d (Frame.encode (Json.Int 1));
  match Frame.next d with
  | Some (Frame.Oversized _) -> ()  (* poisoned for good *)
  | _ -> Alcotest.fail "decoder recovered from an oversized frame"

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let all_requests =
  let handle = String.make 32 'a' in
  [
    Protocol.Load_circuit { name = Some "C17"; bench = None };
    Protocol.Load_circuit { name = None; bench = Some "INPUT(a)\n" };
    Protocol.Characterize { handle };
    Protocol.Partition
      {
        handle;
        method_ = Pipeline.Evolution;
        seed = 7;
        module_size = Some 4;
        require_feasible = true;
      };
    Protocol.Fault_sim
      {
        handle;
        method_ = Pipeline.Refined_standard;
        seed = 1;
        vectors = 16;
        defects = 10;
        defect_current = 2.0e-6;
      };
    Protocol.Diagnose
      {
        handle;
        method_ = Pipeline.Standard;
        seed = 3;
        vectors = 32;
        defects = 25;
        defect_current = 2.0e-6;
        epsilon = 0.02;
        trials = 10;
        top_k = 3;
      };
    Protocol.Testset
      {
        handle;
        seed = 9;
        random_vectors = 16;
        max_backtracks = 100;
        budget = Some 500;
        strategy = Iddq_atpg.Atpg.Essential;
      };
    Protocol.Testset
      {
        handle;
        seed = 42;
        random_vectors = 0;
        max_backtracks = 2000;
        budget = None;
        strategy = Iddq_atpg.Atpg.Refined;
      };
    Protocol.Campaign_submit { spec = "circuits = C17\n"; domains = 2 };
    Protocol.Campaign_status { campaign = "campaign-1" };
    Protocol.Metrics;
    Protocol.Shutdown;
  ]

let test_protocol_roundtrip () =
  List.iteri
    (fun i r ->
      match Protocol.request_of_json (Protocol.request_to_json ~id:i r) with
      | Ok (id, r') ->
        Alcotest.(check bool)
          (Printf.sprintf "request %d round-trips" i)
          true
          (id = Some i && r' = r)
      | Error (_, e) ->
        Alcotest.failf "request %d rejected: %s" i e.Protocol.message)
    all_requests

let test_protocol_rejects () =
  let reject ?code j what =
    match Protocol.request_of_json j with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error (_, e) ->
      Option.iter
        (fun c ->
          Alcotest.(check string)
            (what ^ " error code") (Protocol.code_to_string c)
            (Protocol.code_to_string e.Protocol.code))
        code
  in
  reject ~code:Protocol.Unknown_op
    (Json.Obj [ ("op", Json.String "frobnicate") ])
    "unknown op";
  reject ~code:Protocol.Bad_request (Json.Obj []) "missing op";
  reject ~code:Protocol.Bad_request (Json.Int 3) "non-object request";
  reject ~code:Protocol.Bad_request
    (Json.Obj [ ("op", Json.String "characterize") ])
    "characterize without handle";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "load_circuit"); ("name", Json.String "C17");
         ("bench", Json.String "x");
       ])
    "load with both name and bench";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "diagnose"); ("handle", Json.String "h");
         ("epsilon", Json.Float 0.5);
       ])
    "diagnose with epsilon out of range";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "diagnose"); ("handle", Json.String "h");
         ("trials", Json.Int 0);
       ])
    "diagnose with zero trials";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "testset"); ("handle", Json.String "h");
         ("strategy", Json.String "optimal");
       ])
    "testset with an unknown strategy";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "testset"); ("handle", Json.String "h");
         ("random_vectors", Json.Int (-1));
       ])
    "testset with negative random_vectors";
  reject ~code:Protocol.Bad_request
    (Json.Obj
       [
         ("op", Json.String "testset"); ("handle", Json.String "h");
         ("max_backtracks", Json.Int 0);
       ])
    "testset with zero backtracks";
  (* a present field of the wrong type or out of range is refused,
     never replaced by its default *)
  List.iter
    (fun (op, field, v) ->
      reject ~code:Protocol.Bad_request
        (Json.Obj
           [ ("op", Json.String op); ("handle", Json.String "h"); (field, v) ])
        (Printf.sprintf "%s with %s = %s" op field (Json.to_string v)))
    [
      ("partition", "module_size", Json.String "big");
      ("partition", "require_feasible", Json.String "yes");
      ("diagnose", "epsilon", Json.String "0.3");
      ("diagnose", "epsilon", Json.String "nan");
      ("fault_sim", "defect_current", Json.String "lots");
      ("diagnose", "defect_current", Json.Int (-1));
    ];
  (* the id is echoed even when the request is bad *)
  match
    Protocol.request_of_json
      (Json.Obj [ ("op", Json.String "frobnicate"); ("id", Json.Int 9) ])
  with
  | Error (Some 9, _) -> ()
  | _ -> Alcotest.fail "id not echoed on a bad request"

let test_response_shapes () =
  let payload = Json.Obj [ ("x", Json.Int 1) ] in
  (match Protocol.response_payload (Protocol.ok_response ~id:(Some 3) payload) with
  | Ok p -> Alcotest.check json "ok payload" payload p
  | Error _ -> Alcotest.fail "ok response read back as error");
  let err = Protocol.error Protocol.Not_found "no such thing" in
  match Protocol.response_payload (Protocol.error_response ~id:None err) with
  | Error e ->
    Alcotest.(check bool) "error code survives" true
      (e.Protocol.code = Protocol.Not_found)
  | Ok _ -> Alcotest.fail "error response read back as ok"

(* ------------------------------------------------------------------ *)
(* Service: cache behaviour through the request handler                *)
(* ------------------------------------------------------------------ *)

let ask service req =
  let resp, _ = Service.handle service (Protocol.request_to_json req) in
  Protocol.response_payload resp

let ask_ok what service req =
  match ask service req with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: %s" what e.Protocol.message

let load_c17 service =
  let p =
    ask_ok "load_circuit" service
      (Protocol.Load_circuit { name = Some "C17"; bench = None })
  in
  match Option.bind (Json.member "handle" p) Json.to_str with
  | Some h -> h
  | None -> Alcotest.fail "load_circuit returned no handle"

let test_service_cache_hits () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
  let handle = load_c17 service in
  let partition () =
    ask_ok "partition" service
      (Protocol.Partition
         {
           handle;
           method_ = Pipeline.Standard;
           seed = 5;
           module_size = None;
           require_feasible = false;
         })
  in
  let p1 = partition () in
  let s1 = Metrics.snapshot metrics in
  Alcotest.(check bool) "first partition misses the charac cache" true
    (Metrics.get s1 Metrics.cache_misses > 0);
  let hits_before = Metrics.get s1 Metrics.cache_hits in
  let p2 = partition () in
  let s2 = Metrics.snapshot metrics in
  Alcotest.(check bool) "second partition hits the partition cache" true
    (Metrics.get s2 Metrics.cache_hits > hits_before);
  Alcotest.(check int) "no new cache entries on the second partition"
    (Metrics.get s1 Metrics.cache_misses) (Metrics.get s2 Metrics.cache_misses);
  Alcotest.check json "cached answers are identical" p1 p2;
  Alcotest.(check (option int)) "one cached partition run" (Some 1)
    (Option.bind
       (Json.member "cache" (ask_ok "metrics" service Protocol.Metrics))
       (fun c -> Option.bind (Json.member "partitions" c) Json.to_int));
  Alcotest.(check bool) "request latency recorded" true
    (Metrics.get s2 Metrics.requests >= 3
    && Metrics.seconds s2 Metrics.seconds_requests >= 0.0);
  Service.stop service

(* The partition reply and a campaign record encode a run's
   measurements one way: for a C17 standard run (which no seed
   changes) the reply's members after "method" are the record's
   measurement members, with equal values, in the same order. *)
let test_partition_reply_matches_campaign_record () =
  let service = Service.create () in
  let handle = load_c17 service in
  let reply =
    ask_ok "partition" service
      (Protocol.Partition
         {
           handle;
           method_ = Pipeline.Standard;
           seed = 5;
           module_size = None;
           require_feasible = false;
         })
  in
  Service.stop service;
  let spec =
    {
      Spec.default with
      Spec.circuits = [ "C17" ];
      methods = [ Pipeline.Standard ];
      seeds = [ 1 ];
    }
  in
  let path = Filename.temp_file "iddq-reply-record" ".jsonl" in
  let record =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let store = Result.get_ok (Store.open_ path) in
        (match Runner.run ~store spec with
        | Ok o -> Alcotest.(check int) "job ok" 1 o.Runner.ok
        | Error e -> Alcotest.fail (Runner.error_to_string e));
        Store.close store;
        match Json.parse (String.trim (In_channel.with_open_bin path In_channel.input_all)) with
        | Ok j -> j
        | Error e -> Alcotest.fail e)
  in
  let members = function
    | Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "not an object"
  in
  let measured =
    List.filter (fun (k, _) -> k <> "method") (members reply)
  in
  let identity =
    [ "job"; "circuit"; "method"; "seed"; "derived_seed"; "module_size";
      "status"; "elapsed"; "metrics" ]
  in
  let recorded =
    List.filter (fun (k, _) -> not (List.mem k identity)) (members record)
  in
  Alcotest.(check int) "ten measurements" 10 (List.length measured);
  Alcotest.(check (list string)) "same measurement keys"
    (List.map fst measured) (List.map fst recorded);
  List.iter
    (fun (k, v) -> Alcotest.check json k v (List.assoc k recorded))
    measured

(* The benchmark reads the [metrics] reply's counters by name and takes
   a missing one as 0, so a rename would pass every other test: the
   names are pinned here, literally. *)
let test_metrics_wire_names () =
  let service = Service.create ~metrics:(Metrics.create ()) () in
  let reply = ask_ok "metrics" service Protocol.Metrics in
  let keys =
    match Option.bind (Json.member "counters" reply) Json.to_obj with
    | Some kvs -> List.sort compare (List.map fst kvs)
    | None -> Alcotest.fail "metrics reply has no counters object"
  in
  Alcotest.(check (list string))
    "counter keys"
    (List.sort compare
       [
         "requests";
         "requests_failed";
         "seconds_requests";
         "cache_hits";
         "cache_misses";
         "cache_evictions";
         "full_evals";
         "delta_evals";
         "eval_cache_hits";
         "moves";
         "gates_full";
         "gates_delta";
         "seconds_full";
         "seconds_delta";
         "sim_blocks";
         "sim_fault_blocks";
         "sim_faults_dropped";
         "sim_steals";
         "sheds";
         "queue_peak";
         "wbuf_peak";
       ])
    keys;
  Service.stop service

let test_service_errors () =
  let service = Service.create () in
  (match
     ask service (Protocol.Characterize { handle = "deadbeef" })
   with
  | Error e ->
    Alcotest.(check bool) "unknown handle is not_found" true
      (e.Protocol.code = Protocol.Not_found)
  | Ok _ -> Alcotest.fail "characterize of unknown handle succeeded");
  (match
     ask service (Protocol.Load_circuit { name = Some "C9999"; bench = None })
   with
  | Error e ->
    Alcotest.(check bool) "unknown circuit is not_found" true
      (e.Protocol.code = Protocol.Not_found)
  | Ok _ -> Alcotest.fail "unknown circuit loaded");
  let handle = load_c17 service in
  (match
     ask service
       (Protocol.Partition
          {
            handle;
            method_ = Pipeline.Standard;
            seed = 1;
            module_size = Some 0;
            require_feasible = false;
          })
   with
  | Error e ->
    Alcotest.(check bool) "module_size 0 is bad_request" true
      (e.Protocol.code = Protocol.Bad_request)
  | Ok _ -> Alcotest.fail "module_size 0 accepted");
  let failed =
    Metrics.get (Metrics.snapshot (Service.metrics service)) Metrics.requests_failed
  in
  Alcotest.(check bool) "failures counted" true (failed >= 3);
  Service.stop service

let test_service_diagnose_cached () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
  let handle = load_c17 service in
  let diagnose epsilon =
    ask_ok "diagnose" service
      (Protocol.Diagnose
         {
           handle;
           method_ = Pipeline.Standard;
           seed = 2;
           vectors = 16;
           defects = 12;
           defect_current = 2.0e-6;
           epsilon;
           trials = 8;
           top_k = 2;
         })
  in
  let p1 = diagnose 0.0 in
  (match Option.bind (Json.member "top1_class_accuracy" p1) Json.to_float with
  | Some a ->
    Alcotest.(check (float 0.0)) "noiseless top-1 class accuracy" 1.0 a
  | None -> Alcotest.fail "diagnose payload lacks top1_class_accuracy");
  let s1 = Metrics.snapshot metrics in
  let p2 = diagnose 0.0 in
  let s2 = Metrics.snapshot metrics in
  Alcotest.check json "repeated diagnose is identical" p1 p2;
  Alcotest.(check bool) "repeated diagnose hits the engine cache" true
    (Metrics.get s2 Metrics.cache_hits > Metrics.get s1 Metrics.cache_hits);
  (* the engine cache key deliberately omits the measurement knobs, so
     an epsilon sweep reuses the detection matrix: no new misses *)
  ignore (diagnose 0.05);
  let s3 = Metrics.snapshot metrics in
  Alcotest.(check int) "epsilon sweep reuses the cached engine"
    (Metrics.get s2 Metrics.cache_misses) (Metrics.get s3 Metrics.cache_misses);
  Service.stop service

let test_service_testset_cached () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
  let handle = load_c17 service in
  let testset strategy =
    ask_ok "testset" service
      (Protocol.Testset
         {
           handle;
           seed = 4;
           random_vectors = 8;
           max_backtracks = 200;
           budget = None;
           strategy;
         })
  in
  let p1 = testset Iddq_atpg.Atpg.Greedy in
  let s1 = Metrics.snapshot metrics in
  let p2 = testset Iddq_atpg.Atpg.Greedy in
  let s2 = Metrics.snapshot metrics in
  Alcotest.check json "repeated testset is identical" p1 p2;
  Alcotest.(check bool) "repeated testset hits the engine cache" true
    (Metrics.get s2 Metrics.cache_hits > Metrics.get s1 Metrics.cache_hits);
  (* the memo key deliberately omits the strategy: a strategy sweep
     re-minimizes the cached matrix instead of re-running PODEM *)
  let p3 = testset Iddq_atpg.Atpg.Refined in
  let s3 = Metrics.snapshot metrics in
  Alcotest.(check int) "strategy sweep reuses the cached generation"
    (Metrics.get s2 Metrics.cache_misses) (Metrics.get s3 Metrics.cache_misses);
  let field name p =
    match Option.bind (Json.member name p) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "testset payload lacks %s" name
  in
  Alcotest.(check int) "same full set under both strategies"
    (field "vectors_before" p1) (field "vectors_before" p3);
  Alcotest.(check bool) "refined no larger than greedy" true
    (field "vectors" p3 <= field "vectors" p1);
  (match Option.bind (Json.member "coverage" p1) Json.to_float with
  | Some c -> Alcotest.(check (float 1e-9)) "C17 fully covered" 1.0 c
  | None -> Alcotest.fail "testset payload lacks coverage");
  Service.stop service

let test_service_cache_eviction () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics ~cache_entries:2 () in
  let load name =
    let p =
      ask_ok "load_circuit" service
        (Protocol.Load_circuit { name = Some name; bench = None })
    in
    Option.get (Option.bind (Json.member "handle" p) Json.to_str)
  in
  let h17 = load "C17" in
  let _h432 = load "C432" in
  let h880 = load "C880" in
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "third circuit evicts the oldest" true
    (Metrics.get s Metrics.cache_evictions > 0);
  (* the least-recently-used handle is gone; the newest still answers *)
  (match ask service (Protocol.Characterize { handle = h17 }) with
  | Error e ->
    Alcotest.(check string) "evicted handle is not_found"
      (Protocol.code_to_string Protocol.Not_found)
      (Protocol.code_to_string e.Protocol.code)
  | Ok _ -> Alcotest.fail "evicted handle still resolves");
  ignore (ask_ok "characterize survivor" service
      (Protocol.Characterize { handle = h880 }));
  Service.stop service

(* A client from the future speaks an op this build has never heard
   of.  The contract: a typed unknown_op error with the id echoed —
   never internal, and never a dropped connection. *)
let test_service_future_op_typed () =
  let service = Service.create () in
  let resp, _ =
    Service.handle service
      (Json.Obj [ ("op", Json.String "diagnose_v2"); ("id", Json.Int 4) ])
  in
  (match Protocol.response_payload resp with
  | Error e ->
    Alcotest.(check string) "future op is unknown_op, not internal"
      (Protocol.code_to_string Protocol.Unknown_op)
      (Protocol.code_to_string e.Protocol.code)
  | Ok _ -> Alcotest.fail "future op accepted");
  Alcotest.(check (option int)) "id echoed on a future op" (Some 4)
    (Protocol.response_id resp);
  Service.stop service

let test_service_deterministic_across_instances () =
  (* same request, fresh service: the derived-seed discipline makes
     the answer a function of the request alone *)
  let answer () =
    let service = Service.create ~metrics:(Metrics.create ()) () in
    let handle = load_c17 service in
    let p =
      ask_ok "partition" service
        (Protocol.Partition
           {
             handle;
             method_ = Pipeline.Standard;
             seed = 11;
             module_size = None;
             require_feasible = false;
           })
    in
    Service.stop service;
    Json.to_string p
  in
  Alcotest.(check string) "same answer from a fresh service" (answer ())
    (answer ())

(* Cache transparency: for every request kind the first miss, a
   repeated hit and a miss after eviction answer byte-identical JSON.
   At one entry per table, the second handle's load and request evict
   the first handle's circuit and every value derived from it, so the
   third answer is recomputed from a reloaded circuit; at 256 nothing
   is evicted and it is a hit. *)
let test_cache_transparency cache_entries () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics ~cache_entries () in
  (* a second circuit, whose requests evict the first one's entries *)
  let load_tiny () =
    let bench =
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nn1 = NAND(a, b)\n\
       n2 = NOR(b, c)\ny = AND(n1, n2)\nz = XOR(n1, c)\n"
    in
    let p =
      ask_ok "load_circuit" service
        (Protocol.Load_circuit { name = None; bench = Some bench })
    in
    Option.get (Option.bind (Json.member "handle" p) Json.to_str)
  in
  let kinds =
    [
      ( "partition standard",
        fun handle ->
          Protocol.Partition
            {
              handle;
              method_ = Pipeline.Standard;
              seed = 3;
              module_size = None;
              require_feasible = false;
            } );
      ( "partition evolution",
        fun handle ->
          Protocol.Partition
            {
              handle;
              method_ = Pipeline.Evolution;
              seed = 7;
              module_size = None;
              require_feasible = false;
            } );
      ( "diagnose",
        fun handle ->
          Protocol.Diagnose
            {
              handle;
              method_ = Pipeline.Standard;
              seed = 2;
              vectors = 16;
              defects = 12;
              defect_current = 2.0e-6;
              epsilon = 0.05;
              trials = 8;
              top_k = 2;
            } );
      ( "fault_sim",
        fun handle ->
          Protocol.Fault_sim
            {
              handle;
              method_ = Pipeline.Standard;
              seed = 4;
              vectors = 16;
              defects = 12;
              defect_current = 2.0e-6;
            } );
      ( "testset",
        fun handle ->
          Protocol.Testset
            {
              handle;
              seed = 4;
              random_vectors = 8;
              max_backtracks = 200;
              budget = None;
              strategy = Iddq_atpg.Atpg.Refined;
            } );
    ]
  in
  List.iter
    (fun (what, req) ->
      let answer handle = Json.to_string (ask_ok what service (req handle)) in
      let misses () = Metrics.get (Metrics.snapshot metrics) Metrics.cache_misses in
      let handle = load_c17 service in
      let first = answer handle in
      let hit = answer handle in
      ignore (ask_ok what service (req (load_tiny ())));
      Alcotest.(check string) "reloading keeps the handle" handle
        (load_c17 service);
      let misses_before = misses () in
      let after = answer handle in
      if cache_entries = 1 then
        Alcotest.(check bool) (what ^ ": recomputed after eviction") true
          (misses () > misses_before);
      Alcotest.(check string) (what ^ ": hit = first miss") first hit;
      Alcotest.(check string) (what ^ ": after eviction = first miss") first
        after)
    kinds;
  Service.stop service

(* A miss computes outside the cache lock: while one domain's compute
   closure runs, another domain's lookups return.  The closure waits
   (at most ~5 s) for a flag the other domain sets only once its
   circuit lookup and characterization hit have returned; had the
   closure held the lock, those lookups would have blocked until the
   wait timed out. *)
let test_no_compute_under_lock () =
  let cache = Cache.create ~metrics:(Metrics.create ()) () in
  let c = Option.get (Iscas.by_name "C17") in
  let handle = Cache.add_circuit cache c in
  ignore (Cache.charac cache ~handle c);
  let computing = Atomic.make false and released = Atomic.make false in
  let await flag =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  let miss =
    Domain.spawn (fun () ->
        let released_in_time = ref false in
        ignore
          (Cache.testset cache ~key:"slow" (fun () ->
               Atomic.set computing true;
               released_in_time := await released;
               Error (Iddq_atpg.Atpg.Bad_config "never used")));
        !released_in_time)
  in
  let lookups_done =
    await computing
    && Cache.find_circuit cache handle <> None
    && Iddq_analysis.Charac.num_gates (Cache.charac cache ~handle c) > 0
  in
  Atomic.set released true;
  let released_in_time = Domain.join miss in
  Alcotest.(check bool) "lookups returned" true lookups_done;
  Alcotest.(check bool) "lookups returned while the miss computed" true
    released_in_time

(* ------------------------------------------------------------------ *)
(* Socket transport: concurrent clients, one of them hostile           *)
(* ------------------------------------------------------------------ *)

let with_server f =
  let socket = Filename.temp_file "iddq-test-server" ".sock" in
  let metrics = Metrics.create () in
  match Server.create ~socket ~metrics () with
  | Error e -> Alcotest.fail (Server.create_error_to_string e)
  | Ok srv ->
    let running = Domain.spawn (fun () -> Server.run srv) in
    Fun.protect
      ~finally:(fun () ->
        Server.shutdown srv;
        Domain.join running;
        if Sys.file_exists socket then Sys.remove socket)
      (fun () -> f ~socket ~metrics)

let connect socket =
  match Client.connect ~socket with
  | Ok c -> c
  | Error e -> Alcotest.fail e

(* A failed write fails the test. *)
let send c j = Result.iter_error Alcotest.fail (Client.send c j)
let send_raw c s = Result.iter_error Alcotest.fail (Client.send_raw c s)

let request_ok c what req =
  match Client.request c req with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: %s" what e

let str_field key p =
  match Option.bind (Json.member key p) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply lacks string field %S" key

(* Polls a campaign until it leaves [running] (at most ~10 s). *)
let campaign_state c campaign =
  let rec poll tries =
    let state =
      str_field "state"
        (request_ok c "campaign_status" (Protocol.Campaign_status { campaign }))
    in
    if state = "running" && tries > 0 then begin
      Unix.sleepf 0.05;
      poll (tries - 1)
    end
    else state
  in
  poll 200

(* Once every client has closed, the server reaps their connections
   and the descriptor count settles back to [fds]. *)
let check_fds_settle fds =
  let rec settle tries =
    let now = Io.open_fd_count () in
    if now = fds || tries = 0 then now
    else begin
      Unix.sleepf 0.02;
      settle (tries - 1)
    end
  in
  match (fds, settle 100) with
  | Some before, Some after ->
    Alcotest.(check int) "no leaked descriptors" before after
  | _ -> ()

let test_two_clients_interleaved () =
  with_server (fun ~socket ~metrics:_ ->
      let fds = Io.open_fd_count () in
      let a = connect socket and b = connect socket in
      let load cl =
        match
          Client.request cl
            (Protocol.Load_circuit { name = Some "C17"; bench = None })
        with
        | Ok p -> Option.get (Option.bind (Json.member "handle" p) Json.to_str)
        | Error e -> Alcotest.fail e
      in
      (* interleaved: a loads, b loads (cache hit on content), a
         partitions while b sends a malformed frame *)
      let ha = load a in
      let hb = load b in
      Alcotest.(check string) "same content, same handle" ha hb;
      send_raw b (Frame.encode_payload "]]] nope");
      let part =
        Client.request a
          (Protocol.Partition
             {
               handle = ha;
               method_ = Pipeline.Standard;
               seed = 3;
               module_size = None;
               require_feasible = false;
             })
      in
      (match part with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "client a disturbed by client b: %s" e);
      (match Client.recv b with
      | Ok resp -> begin
        match Protocol.response_payload resp with
        | Error e ->
          Alcotest.(check bool) "b got malformed_frame" true
            (e.Protocol.code = Protocol.Malformed_frame)
        | Ok _ -> Alcotest.fail "malformed frame answered ok"
      end
      | Error e -> Alcotest.failf "no error response for b: %s" e);
      (* b is still usable after its own malformed frame... *)
      (match Client.request b Protocol.Metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "b lost sync after malformed frame: %s" e);
      (* ...then vanishes mid-frame; a must not notice *)
      send_raw b "\x00\x00\x01\x00only the beginning";
      Client.close b;
      (match Client.request a Protocol.Metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "a disturbed by b's disconnect: %s" e);
      Client.close a;
      check_fds_settle fds)

let test_future_op_over_socket () =
  with_server (fun ~socket ~metrics:_ ->
      let c = connect socket in
      send c
        (Json.Obj [ ("op", Json.String "quantum_diagnose"); ("id", Json.Int 41) ]);
      (match Client.recv c with
      | Ok resp -> begin
        Alcotest.(check (option int)) "id echoed over the wire" (Some 41)
          (Protocol.response_id resp);
        match Protocol.response_payload resp with
        | Error e ->
          Alcotest.(check string) "typed unknown_op over the wire"
            (Protocol.code_to_string Protocol.Unknown_op)
            (Protocol.code_to_string e.Protocol.code)
        | Ok _ -> Alcotest.fail "future op answered ok"
      end
      | Error e -> Alcotest.failf "no response to a future op: %s" e);
      (* the connection survives: the same client keeps working *)
      (match Client.request c Protocol.Metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "connection lost after a future op: %s" e);
      Client.close c)

let test_oversized_frame_closes_connection () =
  with_server (fun ~socket ~metrics:_ ->
      let c = connect socket in
      (* a header declaring far more than the cap; the server answers
         with oversized_frame and closes *)
      send_raw c "\x7f\xff\xff\xff";
      (match Client.recv c with
      | Ok resp -> begin
        match Protocol.response_payload resp with
        | Error e ->
          Alcotest.(check bool) "oversized_frame error" true
            (e.Protocol.code = Protocol.Oversized_frame)
        | Ok _ -> Alcotest.fail "oversized frame answered ok"
      end
      | Error e -> Alcotest.failf "no response to oversized frame: %s" e);
      (match Client.recv c with
      | Error _ -> ()  (* EOF: connection closed *)
      | Ok _ -> Alcotest.fail "connection survived an oversized frame");
      Client.close c;
      (* the server is still accepting *)
      let c2 = connect socket in
      (match Client.request c2 Protocol.Metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "server wedged after oversized frame: %s" e);
      Client.close c2)

(* A whole server lifetime over the socket: load, fault_sim, a campaign
   run to completion, then a shutdown request.  Afterwards the descriptor
   population is back where it started and the socket file is gone. *)
let test_shutdown_request_stops_server () =
  (* warm the domain machinery before counting descriptors, so only the
     server's own descriptors are in the delta *)
  Domain.join (Domain.spawn (fun () -> ()));
  let fds_before = Io.open_fd_count () in
  let socket = Filename.temp_file "iddq-test-shutdown" ".sock" in
  match Server.create ~socket () with
  | Error e -> Alcotest.fail (Server.create_error_to_string e)
  | Ok srv ->
    let running = Domain.spawn (fun () -> Server.run srv) in
    let c = connect socket in
    let request = request_ok c in
    let handle =
      str_field "handle"
        (request "load_circuit"
           (Protocol.Load_circuit { name = Some "C17"; bench = None }))
    in
    let sim =
      request "fault_sim"
        (Protocol.Fault_sim
           {
             handle;
             method_ = Pipeline.Standard;
             seed = 42;
             vectors = 32;
             defects = 50;
             defect_current = 2.0e-6;
           })
    in
    Alcotest.(check bool) "fault_sim reply has partitioned.coverage" true
      (Option.bind (Json.member "partitioned" sim) (fun p ->
           Option.bind (Json.member "coverage" p) Json.to_float)
      <> None);
    let submit =
      request "campaign_submit"
        (Protocol.Campaign_submit
           { spec = "circuits = C17\nmethods = standard\nseeds = 1\n"; domains = 1 })
    in
    let store = str_field "store" submit in
    Alcotest.(check string) "campaign reaches done" "done"
      (campaign_state c (str_field "campaign" submit));
    ignore (request "shutdown" Protocol.Shutdown);
    Client.close c;
    Domain.join running;
    (* the service never deletes a campaign's store *)
    Sys.remove store;
    (match (fds_before, Io.open_fd_count ()) with
    | Some before, Some after ->
      Alcotest.(check int) "descriptors across the server lifetime" before after
    | _ -> ());
    Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* 64 clients keep one request each in flight (pipeline depth 1, under
   the server's limit) for 20 lockstep rounds of a mixed stream over a
   warm session cache: characterize 35 %, partition 25 %, diagnose
   15 %, campaign_status 15 %, metrics 10 %.  Every request is answered
   [ok] under its own id, none is shed, and no descriptor leaks. *)
let test_concurrent_clients_none_shed () =
  let clients = 64 and rounds = 20 in
  let store =
    with_server (fun ~socket ~metrics ->
        let fds = Io.open_fd_count () in
        let setup = connect socket in
        let handle =
          str_field "handle"
            (request_ok setup "load_circuit"
               (Protocol.Load_circuit { name = Some "C17"; bench = None }))
        in
        let characterize = Protocol.Characterize { handle }
        and partition =
          Protocol.Partition
            {
              handle;
              method_ = Pipeline.Standard;
              seed = 42;
              module_size = None;
              require_feasible = false;
            }
        and diagnose =
          Protocol.Diagnose
            {
              handle;
              method_ = Pipeline.Standard;
              seed = 42;
              vectors = 16;
              defects = 20;
              defect_current = 2.0e-6;
              epsilon = 0.0;
              trials = 8;
              top_k = 2;
            }
        in
        List.iter
          (fun (what, r) -> ignore (request_ok setup what r))
          [
            ("characterize", characterize);
            ("partition", partition);
            ("diagnose", diagnose);
          ];
        let submit =
          request_ok setup "campaign_submit"
            (Protocol.Campaign_submit
               {
                 spec = "circuits = C17\nmethods = standard\nseeds = 42\n";
                 domains = 1;
               })
        in
        let campaign = str_field "campaign" submit in
        Client.close setup;
        let rng = Rng.create 42 in
        let pick () =
          let d = Rng.int rng 100 in
          if d < 35 then characterize
          else if d < 60 then partition
          else if d < 75 then diagnose
          else if d < 90 then Protocol.Campaign_status { campaign }
          else Protocol.Metrics
        in
        let conns = Array.init clients (fun _ -> connect socket) in
        for round = 0 to rounds - 1 do
          let id i = (round * clients) + i in
          Array.iteri
            (fun i c -> send c (Protocol.request_to_json ~id:(id i) (pick ())))
            conns;
          Array.iteri
            (fun i c ->
              match Client.recv c with
              | Error e -> Alcotest.failf "request %d unanswered: %s" (id i) e
              | Ok resp -> (
                Alcotest.(check (option int)) "id echoed" (Some (id i))
                  (Protocol.response_id resp);
                match Protocol.response_payload resp with
                | Ok _ -> ()
                | Error e ->
                  Alcotest.failf "request %d failed: %s" (id i) e.Protocol.message))
            conns
        done;
        Alcotest.(check int) "none shed" 0
          (Metrics.get (Metrics.snapshot metrics) Metrics.sheds);
        Array.iter Client.close conns;
        check_fds_settle fds;
        str_field "store" submit)
  in
  (* the service never deletes a campaign's store *)
  Sys.remove store

(* A campaign whose worker pool the runtime cannot spawn (200 jobs over
   400 domains, past the domain limit) ends [failed]; it never stays
   [running]. *)
let test_campaign_pool_failure_fails () =
  let seeds = String.concat "," (List.init 200 (fun i -> string_of_int (i + 1))) in
  let store =
    with_server (fun ~socket ~metrics:_ ->
        let c = connect socket in
        let submit =
          request_ok c "campaign_submit"
            (Protocol.Campaign_submit
               {
                 spec =
                   Printf.sprintf "circuits = C17\nmethods = standard\nseeds = %s\n"
                     seeds;
                 domains = 400;
               })
        in
        Alcotest.(check string) "campaign fails" "failed"
          (campaign_state c (str_field "campaign" submit));
        Client.close c;
        str_field "store" submit)
  in
  Sys.remove store

(* ------------------------------------------------------------------ *)
(* Adversarial clients                                                 *)
(* ------------------------------------------------------------------ *)

(* A slow-loris client trickles a whole request one byte per write.
   The cursor decoder must absorb it in O(n) and the multiplexer must
   keep serving others meanwhile. *)
let test_slow_loris () =
  with_server (fun ~socket ~metrics:_ ->
      let slow = connect socket in
      let fast = connect socket in
      let frame =
        Frame.encode (Protocol.request_to_json ~id:7 Protocol.Metrics)
      in
      String.iter
        (fun ch ->
          send_raw slow (String.make 1 ch);
          (* the loop stays responsive between the trickled bytes *)
          match Client.request fast Protocol.Metrics with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "fast client starved by slow-loris: %s" e)
        frame;
      (match Client.recv slow with
      | Ok resp ->
        Alcotest.(check (option int))
          "slow-loris request answered, id echoed" (Some 7)
          (Protocol.response_id resp)
      | Error e -> Alcotest.failf "slow-loris request lost: %s" e);
      Client.close slow;
      Client.close fast)

(* The EPIPE regression: a client pipelines requests and vanishes
   without reading any response.  The server must treat the failed
   sends as that connection's death — [with_server]'s teardown joins
   [Server.run] and re-raises anything that escaped. *)
let test_disconnect_before_reading_response () =
  with_server (fun ~socket ~metrics:_ ->
      let c = connect socket in
      let burst =
        String.concat ""
          (List.init 4 (fun i ->
               Frame.encode (Protocol.request_to_json ~id:i Protocol.Metrics)))
      in
      send_raw c burst;
      (* close with every response unread: the server's writes hit a
         dead peer (EPIPE/ECONNRESET) *)
      Client.close c;
      (* the server must still be alive and serving *)
      let c2 = connect socket in
      (match Client.request c2 Protocol.Metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "server died with the client: %s" e);
      Client.close c2)

(* The mirror image: the server has closed the connection before the
   client writes.  With SIGPIPE ignored (as the CLI client does) the
   write fails with EPIPE, which [Client.request] returns as an
   [Error] — its type says so — instead of raising. *)
let test_request_after_server_close () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = Filename.temp_file "iddq-test-closed" ".sock" in
  Sys.remove socket;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 1;
      let c = connect socket in
      let peer, _ = Unix.accept ~cloexec:true listener in
      Unix.close peer;
      (match Client.request c Protocol.Metrics with
      | Ok _ -> Alcotest.fail "a closed connection answered"
      | Error e ->
        Alcotest.(check bool) ("write error: " ^ e) true
          (String.starts_with ~prefix:"write:" e));
      Client.close c)

(* Descriptor exhaustion.  A server process under a low descriptor
   limit takes clients until accept fails with EMFILE; the refused
   client waits in the listen backlog, so the listener stays readable.
   The server must then sleep until a connection closes, not spin on
   the listener: its CPU time over a held second stays far below the
   wall time.  After a client disconnects, a new client is served. *)

(* Seconds of CPU (user + system) a process has used, from
   /proc/<pid>/stat at the usual 100 clock ticks per second. *)
let cpu_seconds pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  (* the command name may hold spaces; the fields after it do not *)
  let close = String.rindex line ')' in
  let fields =
    String.split_on_char ' '
      (String.sub line (close + 2) (String.length line - close - 2))
  in
  (* the state is field 3; utime and stime are fields 14 and 15 *)
  let field i = float_of_string (List.nth fields (i - 3)) in
  (field 14 +. field 15) /. 100.0

(* Whether a metrics request is answered within [seconds]. *)
let ask_within seconds c =
  send c (Protocol.request_to_json Protocol.Metrics);
  match Unix.select [ Client.fd c ] [] [] seconds with
  | [], _, _ -> false
  | _ -> Result.is_ok (Client.recv c)

let test_emfile_no_busy_spin () =
  let socket = Filename.temp_file "iddq-test-emfile" ".sock" in
  Sys.remove socket;
  let exe = Test_cli_usage.exe in
  let script =
    Printf.sprintf
      "ulimit -n 12; exec %s serve --socket %s --workers 1 >/dev/null 2>&1"
      (Filename.quote exe) (Filename.quote socket)
  in
  let pid =
    Unix.create_process "sh" [| "sh"; "-c"; script |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let rec first_client tries =
        match Client.connect ~socket with
        | Ok c -> c
        | Error e ->
          if tries = 0 then Alcotest.failf "server never listened: %s" e;
          Unix.sleepf 0.05;
          first_client (tries - 1)
      in
      (* connect until one client is left unanswered in the backlog *)
      let rec fill held tries =
        if tries = 0 then Alcotest.fail "descriptor limit never reached";
        let c = if held = [] then first_client 100 else connect socket in
        if ask_within 1.0 c then fill (c :: held) (tries - 1) else (held, c)
      in
      let held, waiting = fill [] 20 in
      Alcotest.(check bool) "some clients served under the limit" true
        (held <> []);
      let cpu0 = cpu_seconds pid and wall0 = Unix.gettimeofday () in
      Unix.sleepf 1.0;
      let cpu = cpu_seconds pid -. cpu0
      and wall = Unix.gettimeofday () -. wall0 in
      if cpu > 0.25 *. wall then
        Alcotest.failf "server spun at EMFILE: %.2f s CPU in %.2f s" cpu wall;
      Client.close waiting;
      Client.close (List.hd held);
      let fresh = connect socket in
      Alcotest.(check bool) "a new client is served after a disconnect" true
        (ask_within 5.0 fresh);
      (match Client.request fresh Protocol.Shutdown with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "shutdown: %s" e);
      List.iter Client.close (fresh :: List.tl held);
      ignore (Unix.waitpid [] pid);
      reaped := true)

(* A burst beyond the pipeline-depth limit: the excess is answered
   immediately with [overloaded] (ids echoed), the connection stays
   usable, and the sheds are counted. *)
let test_pipelined_burst_sheds () =
  let socket = Filename.temp_file "iddq-test-overload" ".sock" in
  let metrics = Metrics.create () in
  match Server.create ~socket ~metrics ~max_pipeline:1 () with
  | Error e -> Alcotest.fail (Server.create_error_to_string e)
  | Ok srv ->
    let running = Domain.spawn (fun () -> Server.run srv) in
    Fun.protect
      ~finally:(fun () ->
        Server.shutdown srv;
        Domain.join running;
        if Sys.file_exists socket then Sys.remove socket)
      (fun () ->
        let c = connect socket in
        let n = 6 in
        send_raw c
          (String.concat ""
             (List.init n (fun i ->
                  Frame.encode (Protocol.request_to_json ~id:i Protocol.Metrics))));
        let ok = ref 0 and shed = ref 0 and ids = ref [] in
        for _ = 1 to n do
          match Client.recv c with
          | Error e -> Alcotest.failf "burst response missing: %s" e
          | Ok resp -> begin
            (match Protocol.response_id resp with
            | Some id -> ids := id :: !ids
            | None -> Alcotest.fail "burst response without an id");
            match Protocol.response_payload resp with
            | Ok _ -> incr ok
            | Error { Protocol.code = Protocol.Overloaded; _ } -> incr shed
            | Error e ->
              Alcotest.failf "unexpected burst error: %s" e.Protocol.message
          end
        done;
        Alcotest.(check bool) "some requests served" true (!ok >= 1);
        Alcotest.(check bool) "some requests shed" true (!shed >= 1);
        Alcotest.(check int) "every request answered exactly once" n
          (List.length (List.sort_uniq compare !ids));
        Alcotest.(check bool) "sheds recorded in metrics" true
          (Metrics.get (Metrics.snapshot metrics) Metrics.sheds >= 1);
        (* the connection is still usable after being shed *)
        (match Client.request c Protocol.Metrics with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "connection dead after shed: %s" e);
        Client.close c)

(* [create] must refuse a socket path owned by a live server but
   reclaim a stale socket file left by a dead one. *)
let test_address_in_use () =
  with_server (fun ~socket ~metrics:_ ->
      match Server.create ~socket () with
      | Error (Server.Address_in_use _) -> ()
      | Error e ->
        Alcotest.failf "expected address_in_use, got: %s"
          (Server.create_error_to_string e)
      | Ok _ -> Alcotest.fail "second server bound a live socket");
  (* a stale socket file: bound once, listener long gone *)
  let stale = Filename.temp_file "iddq-test-stale" ".sock" in
  Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  match Server.create ~socket:stale () with
  | Error e ->
    Alcotest.failf "stale socket not reclaimed: %s"
      (Server.create_error_to_string e)
  | Ok srv ->
    let running = Domain.spawn (fun () -> Server.run srv) in
    Server.shutdown srv;
    Domain.join running;
    if Sys.file_exists stale then Sys.remove stale

(* ------------------------------------------------------------------ *)
(* Cursor decoder vs the old string-concatenation decoder              *)
(* ------------------------------------------------------------------ *)

(* The pre-Netbuf decoder, reimplemented naively as the reference:
   a plain string accumulator with O(n^2) feeding. *)
module Ref_decoder = struct
  type t = { max : int; mutable buf : string; mutable poisoned : int option }

  let create ~max_frame = { max = max_frame; buf = ""; poisoned = None }
  let feed d s = d.buf <- d.buf ^ s

  let next d =
    match d.poisoned with
    | Some n -> Some (Frame.Oversized n)
    | None ->
      let have = String.length d.buf in
      if have < 4 then None
      else begin
        let b i = Char.code d.buf.[i] in
        let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
        if len > d.max then begin
          d.poisoned <- Some len;
          Some (Frame.Oversized len)
        end
        else if have < 4 + len then None
        else begin
          let payload = String.sub d.buf 4 len in
          d.buf <- String.sub d.buf (4 + len) (have - 4 - len);
          match Json.parse payload with
          | Ok j -> Some (Frame.Frame j)
          | Error e -> Some (Frame.Malformed e)
        end
      end
end

let event_str = function
  | Frame.Frame j -> "frame " ^ Json.to_string j
  | Frame.Malformed m -> "malformed " ^ m
  | Frame.Oversized n -> "oversized " ^ string_of_int n

(* One generated stream: well-formed, malformed and oversized frames
   plus trailing garbage, in a random order. *)
let stream_gen =
  QCheck.Gen.(
    let item =
      frequency
        [
          ( 5,
            map
              (fun n ->
                Frame.encode
                  (Json.Obj
                     [ ("id", Json.Int n); ("pad", Json.String (String.make (n land 31) 'x')) ]))
              small_nat );
          (2, map (fun s -> Frame.encode_payload (s ^ "{")) small_string);
          (1, return "\x7f\xff\xff\xffgarbage-after-poison");
        ]
    in
    let* items = list_size (int_range 0 8) item in
    let* cut = int_range 0 3 in
    let s = String.concat "" items in
    (* possibly truncate: partial trailing frames must never produce
       an event *)
    return (String.sub s 0 (String.length s - min cut (String.length s))))

let qcheck_cursor_decoder_equivalent =
  QCheck.Test.make
    ~name:"cursor decoder event-identical to string decoder under any chunking"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair stream_gen (int_range 1 17))
       ~print:(fun (s, chunk) -> Printf.sprintf "chunk=%d stream=%S" chunk s))
    (fun (stream, chunk) ->
      let cur = Frame.create ~max_frame:1024 () in
      let ref_ = Ref_decoder.create ~max_frame:1024 in
      let drain_both () =
        (* Oversized is terminal for both: they would report it forever *)
        let rec go acc =
          let a = Frame.next cur and b = Ref_decoder.next ref_ in
          match (a, b) with
          | None, None -> List.rev acc
          | Some ea, Some eb when event_str ea = event_str eb -> begin
            match ea with
            | Frame.Oversized _ -> List.rev (event_str ea :: acc)
            | _ -> go (event_str ea :: acc)
          end
          | _ ->
            QCheck.Test.fail_reportf "decoders diverged: %s vs %s"
              (match a with Some e -> event_str e | None -> "<none>")
              (match b with Some e -> event_str e | None -> "<none>")
        in
        go []
      in
      let n = String.length stream in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        let piece = String.sub stream !i len in
        Frame.feed cur piece;
        Ref_decoder.feed ref_ piece;
        ignore (drain_both ());
        i := !i + len
      done;
      ignore (drain_both ());
      true)

(* New cases go at the end: a case's index is printed with its name,
   so inserting one renumbers every case after it. *)
let tests =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_frame_split_boundaries;
    Alcotest.test_case "frame malformed stays in sync" `Quick
      test_frame_malformed_stays_in_sync;
    Alcotest.test_case "frame oversized poisons" `Quick
      test_frame_oversized_poisons;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "response shapes" `Quick test_response_shapes;
    Alcotest.test_case "service cache hits" `Quick test_service_cache_hits;
    Alcotest.test_case "service errors" `Quick test_service_errors;
    Alcotest.test_case "service diagnose cached" `Quick
      test_service_diagnose_cached;
    Alcotest.test_case "service testset cached" `Quick
      test_service_testset_cached;
    Alcotest.test_case "service cache eviction" `Quick
      test_service_cache_eviction;
    Alcotest.test_case "service future op typed" `Quick
      test_service_future_op_typed;
    Alcotest.test_case "service deterministic" `Quick
      test_service_deterministic_across_instances;
    Alcotest.test_case "two clients interleaved" `Quick
      test_two_clients_interleaved;
    Alcotest.test_case "future op over socket" `Quick
      test_future_op_over_socket;
    Alcotest.test_case "oversized frame closes connection" `Quick
      test_oversized_frame_closes_connection;
    Alcotest.test_case "shutdown request stops server" `Quick
      test_shutdown_request_stops_server;
    Alcotest.test_case "64 concurrent clients, none shed" `Quick
      test_concurrent_clients_none_shed;
    Alcotest.test_case "campaign past the domain limit fails" `Quick
      test_campaign_pool_failure_fails;
    Alcotest.test_case "slow-loris client" `Quick test_slow_loris;
    Alcotest.test_case "disconnect before reading response" `Quick
      test_disconnect_before_reading_response;
    Alcotest.test_case "request after server close is an Error" `Quick
      test_request_after_server_close;
    Alcotest.test_case "pipelined burst sheds" `Quick
      test_pipelined_burst_sheds;
    Alcotest.test_case "address in use" `Quick test_address_in_use;
    Alcotest.test_case "descriptor exhaustion does not spin" `Quick
      test_emfile_no_busy_spin;
    QCheck_alcotest.to_alcotest qcheck_cursor_decoder_equivalent;
    Alcotest.test_case "metrics wire names" `Quick test_metrics_wire_names;
    Alcotest.test_case "partition reply = campaign record" `Quick
      test_partition_reply_matches_campaign_record;
    Alcotest.test_case "cache transparency, 1 entry" `Quick
      (test_cache_transparency 1);
    Alcotest.test_case "cache transparency, 256 entries" `Quick
      (test_cache_transparency 256);
    Alcotest.test_case "no compute under the cache lock" `Quick
      test_no_compute_under_lock;
  ]
