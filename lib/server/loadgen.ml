module Json = Iddq_util.Json
module Rng = Iddq_util.Rng
module Stats = Iddq_util.Stats
module Clock = Iddq_util.Clock

type config = {
  socket : string;
  clients : int;
  requests : int;
  pipeline : int;
  seed : int;
  deadline : float;
}

let config ~socket ?(clients = 64) ?(requests = 20) ?(pipeline = 1)
    ?(seed = 42) ?(deadline = 120.0) () =
  {
    socket;
    clients = Stdlib.max 1 clients;
    requests = Stdlib.max 1 requests;
    pipeline = Stdlib.max 1 pipeline;
    seed;
    deadline;
  }

type totals = {
  clients : int;
  requests_sent : int;
  ok : int;
  overloaded : int;
  failed : int;
  elapsed : float;
  throughput : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Request mix                                                         *)
(* ------------------------------------------------------------------ *)

let circuit = "C17"
let mix_method = Iddq.Pipeline.Standard
let mix_seed = 42

let diagnose ~handle =
  Protocol.Diagnose
    {
      handle;
      method_ = mix_method;
      seed = mix_seed;
      vectors = 16;
      defects = 20;
      defect_current = 2.0e-6;
      epsilon = 0.0;
      trials = 8;
      top_k = 2;
    }

let partition ~handle =
  Protocol.Partition
    {
      handle;
      method_ = mix_method;
      seed = mix_seed;
      module_size = None;
      require_feasible = false;
    }

(* characterize 35 / partition 25 / diagnose 15 / campaign_status 15 /
   metrics 10 *)
let pick rng ~handle ~campaign =
  let d = Rng.int rng 100 in
  if d < 35 then Protocol.Characterize { handle }
  else if d < 60 then partition ~handle
  else if d < 75 then diagnose ~handle
  else if d < 90 then Protocol.Campaign_status { campaign }
  else Protocol.Metrics

(* Warm every operation in the mix through a blocking client, so the
   measured phase hits the session cache and benchmarks the transport,
   not the synthesis pipeline.  Returns the circuit handle and the id
   of a submitted campaign for [campaign_status] to poll. *)
let setup (cfg : config) =
  let ( let* ) = Stdlib.Result.bind in
  let* cl = Client.connect ~socket:cfg.socket in
  let finally () = Client.close cl in
  let req what r =
    match Client.request cl r with
    | Ok payload -> Ok payload
    | Error e ->
      finally ();
      Error (Printf.sprintf "loadgen setup: %s: %s" what e)
  in
  let* load =
    req "load_circuit"
      (Protocol.Load_circuit { name = Some circuit; bench = None })
  in
  let* handle =
    match Option.bind (Json.member "handle" load) Json.to_str with
    | Some h -> Ok h
    | None ->
      finally ();
      Error "loadgen setup: load_circuit response lacks a handle"
  in
  let* _ = req "characterize" (Protocol.Characterize { handle }) in
  let* _ = req "partition" (partition ~handle) in
  let* _ = req "diagnose" (diagnose ~handle) in
  let spec =
    Printf.sprintf "circuits = %s\nmethods = standard\nseeds = %d\n" circuit
      mix_seed
  in
  let* submit =
    req "campaign_submit" (Protocol.Campaign_submit { spec; domains = 1 })
  in
  let* campaign =
    match Option.bind (Json.member "campaign" submit) Json.to_str with
    | Some c -> Ok c
    | None ->
      finally ();
      Error "loadgen setup: campaign_submit response lacks a campaign id"
  in
  finally ();
  Ok (handle, campaign)

(* ------------------------------------------------------------------ *)
(* Measured phase: one select loop over all client connections         *)
(* ------------------------------------------------------------------ *)

type cl = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : Netbuf.t;
  rng : Rng.t;
  sent_at : (int, int) Hashtbl.t;  (* request id -> send time, Clock ns *)
  mutable sent : int;
  mutable answered : int;
}

exception Fail of string

let connect_all (cfg : config) =
  List.init cfg.clients (fun i ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.connect fd (Unix.ADDR_UNIX cfg.socket) with
      | () -> ()
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise
          (Fail
             (Printf.sprintf "loadgen: connect (client %d): %s" i
                (Unix.error_message err))));
      Unix.set_nonblock fd;
      {
        fd;
        dec = Frame.create ();
        out = Netbuf.create ();
        rng = Rng.derive (Rng.create cfg.seed) i;
        sent_at = Hashtbl.create 16;
        sent = 0;
        answered = 0;
      })

let top_up (cfg : config) ~handle ~campaign c =
  while c.sent < cfg.requests && c.sent - c.answered < cfg.pipeline do
    let id = c.sent in
    let r = pick c.rng ~handle ~campaign in
    Netbuf.append_string c.out (Frame.encode (Protocol.request_to_json ~id r));
    Hashtbl.replace c.sent_at id (Clock.now_ns ());
    c.sent <- c.sent + 1
  done

let flush_out c =
  let buf, off, len = Netbuf.peek c.out in
  if len > 0 then
    match Unix.write c.fd buf off len with
    | n -> Netbuf.consume c.out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (err, _, _) ->
      raise (Fail ("loadgen: write: " ^ Unix.error_message err))

let measure (cfg : config) ~handle ~campaign =
  let clients = connect_all cfg in
  let latencies = ref [] in
  let ok = ref 0 and overloaded = ref 0 and failed = ref 0 in
  let total = cfg.clients * cfg.requests in
  let answered_total = ref 0 in
  let rbuf = Bytes.create 65536 in
  let consume_response c j =
    let now = Clock.now_ns () in
    (match Protocol.response_id j with
    | None -> raise (Fail "loadgen: response without an id")
    | Some id -> begin
      match Hashtbl.find_opt c.sent_at id with
      | None -> raise (Fail (Printf.sprintf "loadgen: unknown response id %d" id))
      | Some t0 ->
        Hashtbl.remove c.sent_at id;
        latencies := float_of_int (now - t0) /. 1e6 :: !latencies
    end);
    (match Protocol.response_payload j with
    | Ok _ -> incr ok
    | Error { Protocol.code = Protocol.Overloaded; _ } -> incr overloaded
    | Error _ -> incr failed);
    c.answered <- c.answered + 1;
    incr answered_total
  in
  let drain_decoder c =
    let rec go () =
      match Frame.next c.dec with
      | None -> ()
      | Some (Frame.Frame j) ->
        consume_response c j;
        go ()
      | Some (Frame.Malformed m) -> raise (Fail ("loadgen: bad response: " ^ m))
      | Some (Frame.Oversized n) ->
        raise (Fail (Printf.sprintf "loadgen: oversized response (%d bytes)" n))
    in
    go ()
  in
  let read_in c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> raise (Fail "loadgen: server closed the connection early")
    | n ->
      Frame.feed_sub c.dec rbuf 0 n;
      drain_decoder c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (err, _, _) ->
      raise (Fail ("loadgen: read: " ^ Unix.error_message err))
  in
  let started = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        clients)
    (fun () ->
      while !answered_total < total do
        if Clock.seconds_since started > cfg.deadline then
          raise
            (Fail
               (Printf.sprintf
                  "loadgen: deadline (%.0f s) hit with %d/%d responses"
                  cfg.deadline !answered_total total));
        List.iter (top_up cfg ~handle ~campaign) clients;
        let reads =
          List.filter_map
            (fun c -> if c.answered < c.sent then Some c.fd else None)
            clients
        and writes =
          List.filter_map
            (fun c -> if not (Netbuf.is_empty c.out) then Some c.fd else None)
            clients
        in
        let readable, writable, _ =
          try Unix.select reads writes [] 0.25
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun c -> if List.memq c.fd writable then flush_out c)
          clients;
        List.iter (fun c -> if List.memq c.fd readable then read_in c) clients
      done;
      let elapsed = Clock.seconds_since started in
      let lat = Array.of_list !latencies in
      let pct p = if Array.length lat = 0 then 0.0 else Stats.percentile lat p in
      {
        clients = cfg.clients;
        requests_sent = total;
        ok = !ok;
        overloaded = !overloaded;
        failed = !failed;
        elapsed;
        throughput = (if elapsed > 0.0 then float_of_int total /. elapsed else 0.0);
        p50_ms = pct 50.0;
        p95_ms = pct 95.0;
        p99_ms = pct 99.0;
        max_ms = (if Array.length lat = 0 then 0.0 else snd (Stats.min_max lat));
      })

let run (cfg : config) =
  (* writes race client closes; see Server.run *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match setup cfg with
  | Error e -> Error e
  | Ok (handle, campaign) -> begin
    match measure cfg ~handle ~campaign with
    | totals -> Ok totals
    | exception Fail e -> Error e
  end

let totals_json (cfg : config) (t : totals) =
  Json.Obj
    [
      ("bench", Json.String "serve-loadgen");
      ("circuit", Json.String circuit);
      ("clients", Json.Int t.clients);
      ("requests_per_client", Json.Int cfg.requests);
      ("pipeline", Json.Int cfg.pipeline);
      ("seed", Json.Int cfg.seed);
      ("requests", Json.Int t.requests_sent);
      ("ok", Json.Int t.ok);
      ("overloaded", Json.Int t.overloaded);
      ("failed", Json.Int t.failed);
      ("elapsed_s", Json.Float t.elapsed);
      ("throughput_rps", Json.Float t.throughput);
      ("p50_ms", Json.Float t.p50_ms);
      ("p95_ms", Json.Float t.p95_ms);
      ("p99_ms", Json.Float t.p99_ms);
      ("max_ms", Json.Float t.max_ms);
    ]

let pp_totals fmt t =
  Format.fprintf fmt
    "@[<v>%d clients, %d requests: %d ok, %d overloaded, %d failed@,\
     %.2f s, %.1f req/s@,\
     latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms@]"
    t.clients t.requests_sent t.ok t.overloaded t.failed t.elapsed t.throughput
    t.p50_ms t.p95_ms t.p99_ms t.max_ms
