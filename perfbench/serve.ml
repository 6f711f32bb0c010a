(* serve_mixed: open-loop traffic from this process against the
   resident service running as a child process.

   Independent users make an open loop: requests are sent on a Poisson
   schedule drawn from the seed, whatever the server's progress, and
   each is timed from the moment it was due, so a stall also charges
   the requests queued behind it.  The generator reports how late it
   sent.  Two connections carry the load and the server runs two
   workers, matching the two cores of the box the bounds were set on. *)

module Json = Iddq_util.Json
module Rng = Iddq_util.Rng
module Stats = Iddq_util.Stats
module Protocol = Iddq_server.Protocol
module Frame = Iddq_server.Frame
module Netbuf = Iddq_server.Netbuf
module Client = Iddq_server.Client
module Server = Iddq_server.Server
module Pipeline = Iddq.Pipeline

let workers = 2
let connections = 2

(* Per-connection in-flight limit: open-loop bursts above the default
   of 8 were refused with [overloaded]; 64 leaves room for them. *)
let max_pipeline = 64

(* Small enough that the fresh-seed requests evict cached entries. *)
let cache_entries = 32

(* Requests per second, low enough that few requests queue behind an
   ES run: at 150 req/s the median moved 8% between runs, at 75 by 4-5%.
   At 75 req/s, stretches when the shared host ran about 2x slower
   brought the server near saturation and the median rose 2-4x; at 40
   the busy share stays low even then. *)
let rate = 40.0
let warmup_s = 1.0

(* The server child, run as [main.exe serve-child SOCKET]. *)
let child socket =
  match Server.create ~socket ~workers ~max_pipeline ~cache_entries () with
  | Error e ->
    prerr_endline (Server.create_error_to_string e);
    exit 2
  | Ok s ->
    Server.run s;
    exit 0

type server = { pid : int; client : Client.t; c17 : string; c432 : string }

let request_exn cl r =
  match Client.request cl r with Ok j -> j | Error e -> failwith ("setup request: " ^ e)

let diagnose ~handle ~seed =
  Protocol.Diagnose
    {
      handle;
      method_ = Pipeline.Standard;
      seed;
      vectors = 16;
      defects = 64;
      defect_current = 2.0e-6;
      epsilon = 0.0;
      trials = 8;
      top_k = 2;
    }

let partition ~handle ~method_ ~seed =
  Protocol.Partition { handle; method_; seed; module_size = None; require_feasible = false }

(* Wait until the server accepts, load both circuits and warm the cache
   for every cached request of the mix. *)
let warm ~socket pid =
  let t0 = Trace.now_ns () in
  let rec connect () =
    match Client.connect ~socket with
    | Ok c -> c
    | Error e ->
      if Trace.seconds_since t0 > 10.0 then failwith ("server did not start: " ^ e);
      Unix.sleepf 0.005;
      connect ()
  in
  let client = connect () in
  let load name =
    let j = request_exn client (Protocol.Load_circuit { name = Some name; bench = None }) in
    match Option.bind (Json.member "handle" j) Json.to_str with
    | Some h -> h
    | None -> failwith "load_circuit answered without a handle"
  in
  let c17 = load "C17" and c432 = load "C432" in
  List.iter
    (fun handle ->
      ignore (request_exn client (Protocol.Characterize { handle }));
      ignore (request_exn client (partition ~handle ~method_:Pipeline.Standard ~seed:42));
      ignore (request_exn client (diagnose ~handle ~seed:42)))
    [ c17; c432 ];
  { pid; client; c17; c432 }

(* A server that fails to come up is killed and waited for. *)
let start ~socket =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-child"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  try warm ~socket pid
  with e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let stop s =
  (try ignore (Client.request s.client Protocol.Shutdown) with _ -> ());
  Client.close s.client;
  ignore (Unix.waitpid [] s.pid)

(* The request mix, in percent.  A characterize is a pure session-cache
   hit.  Partitions are computed on every request (the service caches
   circuits, characterizations, vector sets and diagnosis engines, not
   partitions): the standard one on C432 takes ~2.5 ms, and
   [partition_evolution] runs the ES from a fresh seed.  A diagnose at
   the fixed seed reuses its cached engine; [diagnose_miss] builds a
   fresh vector set and engine, which misses and, past [cache_entries],
   evicts.  About 30% of requests are cheap, so the median falls among
   the C432 handler-bound ones. *)
let mix s =
  let fresh rng = 1000 + Rng.int rng 1_000_000 in
  [
    ("characterize", 10, fun _ -> Protocol.Characterize { handle = s.c17 });
    ("partition", 5, fun _ -> partition ~handle:s.c17 ~method_:Pipeline.Standard ~seed:42);
    ("metrics", 5, fun _ -> Protocol.Metrics);
    ("characterize", 10, fun _ -> Protocol.Characterize { handle = s.c432 });
    ("partition", 20, fun _ -> partition ~handle:s.c432 ~method_:Pipeline.Standard ~seed:42);
    ("diagnose", 20, fun _ -> diagnose ~handle:s.c432 ~seed:42);
    ( "partition_evolution",
      15,
      fun rng -> partition ~handle:s.c432 ~method_:Pipeline.Evolution ~seed:(fresh rng) );
    ("diagnose_miss", 15, fun rng -> diagnose ~handle:s.c432 ~seed:(fresh rng));
  ]

let pick mix rng =
  let d = Rng.int rng 100 in
  let rec go acc = function
    | [ (label, _, make) ] -> (label, make)
    | (label, w, make) :: tl -> if d < acc + w then (label, make) else go (acc + w) tl
    | [] -> assert false
  in
  go 0 mix

type conn = { fd : Unix.file_descr; dec : Frame.decoder; out : Netbuf.t }

type sent = { label : string; due : float; measured : bool }

type traffic = {
  latencies : (string * float) list;  (** Label, ms from due time. *)
  late_ms : float list;  (** Send time minus due time, measured requests. *)
  requests : int;  (** Sent, warm-up included. *)
  failures : int;
  ambiguity : float list;
      (** Expected ambiguity share of each fresh diagnosis engine. *)
}

let connect_conn socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; dec = Frame.create (); out = Netbuf.create () }

(* Send on the Poisson schedule for [warmup_s + seconds], then collect
   the outstanding answers.  Requests due in the warm-up are checked
   but not timed. *)
let drive ~socket ~seed ~seconds s =
  let conns = Array.init connections (fun _ -> connect_conn socket) in
  let rng = Rng.create seed in
  let mix = mix s in
  let pending = Hashtbl.create 1024 in
  let latencies = ref [] and late = ref [] and failures = ref 0 and requests = ref 0 in
  let ambiguity = ref [] in
  let t0 = Trace.now_ns () in
  let clock () = Trace.seconds_since t0 in
  let stop_at = warmup_s +. seconds in
  let gap () = -.log (1.0 -. Rng.float rng 1.0) /. rate in
  let next_due = ref (gap ()) and next_id = ref 0 in
  let rbuf = Bytes.create 65536 in
  let number k j = Option.bind (Json.member k j) Json.to_float in
  let answer j =
    let now = clock () in
    match Option.bind (Protocol.response_id j) (Hashtbl.find_opt pending) with
    | None -> failwith "response with an unknown id"
    | Some r ->
      Hashtbl.remove pending (Option.get (Protocol.response_id j));
      (match Protocol.response_payload j with
      | Ok payload ->
        if r.measured then begin
          latencies := (r.label, 1000.0 *. (now -. r.due)) :: !latencies;
          match (number "expected_ambiguity" payload, number "faults" payload) with
          | Some a, Some n when r.label = "diagnose_miss" && n > 0.0 ->
            ambiguity := (a /. n) :: !ambiguity
          | _ -> ()
        end
      | Error e ->
        incr failures;
        Printf.eprintf "request %s failed: %s\n%!" r.label e.Protocol.message)
  in
  let read c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> failwith "server closed a connection"
    | n ->
      Frame.feed_sub c.dec rbuf 0 n;
      let rec drain () =
        match Frame.next c.dec with
        | None -> ()
        | Some (Frame.Frame j) ->
          answer j;
          drain ()
        | Some (Frame.Malformed m) -> failwith ("malformed response: " ^ m)
        | Some (Frame.Oversized n) -> failwith (Printf.sprintf "oversized response (%d bytes)" n)
      in
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let write c =
    let buf, off, len = Netbuf.peek c.out in
    match Unix.write c.fd buf off len with
    | n -> Netbuf.consume c.out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      while !next_due < stop_at || Hashtbl.length pending > 0 do
        let now = clock () in
        if now > stop_at +. 10.0 then failwith "answers outstanding 10 s after the last request";
        while !next_due <= now && !next_due < stop_at do
          let id = !next_id in
          incr next_id;
          let label, make = pick mix rng in
          let req = make rng in
          let c = conns.(id mod connections) in
          Netbuf.append_string c.out (Frame.encode (Protocol.request_to_json ~id req));
          let measured = !next_due >= warmup_s in
          Hashtbl.replace pending id { label; due = !next_due; measured };
          incr requests;
          if measured then late := (1000.0 *. (now -. !next_due)) :: !late;
          next_due := !next_due +. gap ()
        done;
        Array.iter (fun c -> if not (Netbuf.is_empty c.out) then write c) conns;
        let writes =
          Array.to_list conns
          |> List.filter_map (fun c -> if Netbuf.is_empty c.out then None else Some c.fd)
        in
        let timeout =
          if !next_due < stop_at then Float.max 0.0 (!next_due -. clock ()) else 0.05
        in
        let readable, _, _ =
          try Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) writes [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        Array.iter (fun c -> if List.memq c.fd readable then read c) conns
      done;
      {
        latencies = !latencies;
        late_ms = !late;
        requests = !requests;
        failures = !failures;
        ambiguity = !ambiguity;
      })

let counters s =
  let j = request_exn s.client Protocol.Metrics in
  match Json.member "counters" j with
  | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
  | _ -> []

let run ~seed ~seconds ~trace ~socket =
  (* traced runs record the set-up and traffic phases; the per-request
     numbers come from the request records and the server's counters *)
  Trace.enabled := trace;
  let setup, s =
    Measure.setup ~release:stop (fun () -> Trace.span "serve.setup" (fun () -> start ~socket))
  in
  let result, peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> stop s)
      (fun () ->
        let before = counters s in
        let t = Trace.span "serve.traffic" (fun () -> drive ~socket ~seed ~seconds s) in
        let after = counters s in
        let peak_rss_mb = Measure.peak_rss_mb (string_of_int s.pid) in
        let delta k =
          Option.value ~default:0.0 (List.assoc_opt k after)
          -. Option.value ~default:0.0 (List.assoc_opt k before)
        in
        let all = Array.of_list (List.map snd t.latencies) in
        let pct xs p = if Array.length xs = 0 then 0.0 else Stats.percentile xs p in
        let tail xs = pct xs (Measure.tail_percentile (Array.length xs)) in
        let of_label l =
          Array.of_list (List.filter_map (fun (l', v) -> if l = l' then Some v else None) t.latencies)
        in
        let mean xs = Stats.mean (Array.of_list xs) in
        let late = Array.of_list t.late_ms in
        Measure.check "every serve_mixed response is ok" (t.failures = 0);
        let layer =
          List.map
            (fun l -> ("server.rtt_p50_ms." ^ l, pct (of_label l) 50.0))
            [ "characterize"; "partition"; "diagnose"; "metrics"; "partition_evolution"; "diagnose_miss" ]
          @ [
              ("server.rtt_tail_ms", tail all);
              ("server.rtt_samples", float_of_int (Array.length all));
              ("server.gen_late_tail_ms", tail late);
              ( "server.handler_ms_mean",
                if delta "requests" > 0.0 then 1000.0 *. delta "seconds_requests" /. delta "requests"
                else 0.0 );
              ("server.achieved_rps", float_of_int (Array.length all) /. seconds);
              ("server.cache_hits", delta "cache_hits");
              ("server.cache_misses", delta "cache_misses");
              ("server.cache_evictions", delta "cache_evictions");
              ("server.sheds", delta "sheds");
              ("server.queue_peak", Option.value ~default:0.0 (List.assoc_opt "queue_peak" after));
              ("server.wbuf_peak", Option.value ~default:0.0 (List.assoc_opt "wbuf_peak" after));
            ]
        in
        ( {
            Measure.setup_s = 0.0;
            e2e = [ ("latency_ms", pct all 50.0); ("qor", mean t.ambiguity) ];
            layer;
            attempted = t.requests;
            failed = t.failures;
          },
          peak_rss_mb ))
  in
  (* the second round of set-ups, once the first server has stopped *)
  Measure.repeat_setup setup;
  ({ result with Measure.setup_s = Measure.setup_seconds setup }, peak_rss_mb)
