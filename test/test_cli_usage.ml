(* The CLI's no-args synopsis is generated from the same command list
   Cmd.group dispatches on; this regression test pins the synopsis,
   the dispatch table, and this documented set to each other — adding
   a subcommand without updating the docs (or vice versa) fails
   here. *)

let expected_commands =
  [
    "partition";
    "compare";
    "simulate";
    "diagnose";
    "atpg";
    "testset";
    "dump-library";
    "stats";
    "generate";
    "campaign";
    "serve";
    "client";
  ]

(* The binary sits beside the suite's own in the build tree (a
   declared dep of the test stanza), found from the running executable
   rather than the cwd, so the suite runs from any directory. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "iddq_synth.exe")

let run_capture args =
  let cmd = Filename.quote_command exe args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1024
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Buffer.contents buf

let test_synopsis_matches_dispatch () =
  Alcotest.(check bool)
    (Printf.sprintf "binary %s present" exe)
    true (Sys.file_exists exe);
  let out = run_capture [] in
  let commands_line =
    List.find_opt
      (fun l -> String.length l >= 9 && String.sub l 0 9 = "commands:")
      (String.split_on_char '\n' out)
  in
  match commands_line with
  | None -> Alcotest.failf "no-args output lacks a commands: line:\n%s" out
  | Some line ->
    let listed =
      String.split_on_char ' '
        (String.sub line 9 (String.length line - 9))
      |> List.filter (fun s -> s <> "")
    in
    Alcotest.(check (list string))
      "synopsis enumerates exactly the documented subcommands"
      (List.sort compare expected_commands)
      (List.sort compare listed)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let test_unknown_subcommand_enumerates () =
  let out = run_capture [ "no-such-subcommand" ] in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "unknown-command error mentions %S" name)
        true (contains out name))
    expected_commands

(* The exit status of a run, its output discarded. *)
let run_status args =
  let cmd = Filename.quote_command exe args ^ " >/dev/null 2>&1" in
  Sys.command cmd

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A bad configuration or option value is an [error:] line and exit
   status 1, never an uncaught exception.  That includes a domain count
   past the runtime's limit: a campaign pool or a server crew that
   cannot be spawned. *)
let test_bad_values_exit_1 () =
  let err = Filename.temp_file "iddq-cli" ".err" in
  let store = Filename.temp_file "iddq-cli" ".jsonl" in
  let socket = Filename.temp_file "iddq-cli" ".sock" in
  Sys.remove socket;
  let seeds = String.concat "," (List.init 200 (fun i -> string_of_int (i + 1))) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ err; store; socket ])
    (fun () ->
      List.iter
        (fun args ->
          let what = String.concat " " args in
          let status =
            Sys.command
              (Filename.quote_command exe ~stdout:Filename.null ~stderr:err
                 args)
          in
          let stderr = read_file err in
          Alcotest.(check int) (what ^ ": exit status") 1 status;
          Alcotest.(check bool) (what ^ ": error line") true
            (String.starts_with ~prefix:"error:" stderr);
          Alcotest.(check bool) (what ^ ": no uncaught exception") false
            (contains stderr "uncaught exception"))
        [
          [ "partition"; "-c"; "C17"; "--module-size"; "0" ];
          [ "compare"; "-c"; "C17"; "--module-size"; "0" ];
          [ "simulate"; "-c"; "C17"; "--module-size"; "0" ];
          [ "diagnose"; "-c"; "C17"; "--epsilon"; "nan" ];
          [
            "campaign"; "--circuits"; "C17"; "--methods"; "standard";
            "--seeds"; seeds; "--domains"; "400"; "--out"; store; "--quiet";
          ];
          [ "serve"; "--socket"; socket; "--workers"; "400" ];
        ];
      Alcotest.(check bool) "failed serve leaves no socket file" false
        (Sys.file_exists socket))

(* Checkpoint/resume through the CLI: a tiny campaign run twice against
   one store.  The first run records every job; the second finds them
   all on disk and leaves the store byte-identical. *)
let test_campaign_resumes_through_cli () =
  let store = Filename.temp_file "iddq-campaign" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove store)
    (fun () ->
      let run () =
        run_status
          [ "campaign"; "--circuits"; "C17"; "--methods"; "standard,evolution";
            "--seeds"; "1,2"; "--generations"; "5"; "--domains"; "2"; "--out"; store ]
      in
      Alcotest.(check int) "first run exits 0" 0 (run ());
      let first = read_file store in
      let records =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match Iddq_campaign.Job_result.of_line line with
              | Ok r -> Some r
              | Error e -> Alcotest.failf "store line does not decode: %s" e)
          (String.split_on_char '\n' first)
      in
      Alcotest.(check (list string))
        "one ok record per job"
        [ "C17:evolution:s1:m-"; "C17:evolution:s2:m-"; "C17:standard:s1:m-";
          "C17:standard:s2:m-" ]
        (List.sort compare
           (List.filter_map
              (fun r ->
                if Iddq_campaign.Job_result.is_ok r then
                  Some r.Iddq_campaign.Job_result.job_id
                else None)
              records));
      Alcotest.(check int) "second run exits 0" 0 (run ());
      Alcotest.(check string) "resumed store unchanged" first (read_file store))

(* [serve] as a child process and [client] driven through stdin: a load
   and a shutdown request, each answered with an ok line; both processes
   exit 0 and the server removes its socket file. *)
let test_serve_and_client_through_cli () =
  let socket = Filename.temp_file "iddq-cli-serve" ".sock" in
  Sys.remove socket;
  let requests = Filename.temp_file "iddq-cli-requests" ".jsonl" in
  let responses = Filename.temp_file "iddq-cli-responses" ".jsonl" in
  Out_channel.with_open_bin requests (fun oc ->
      output_string oc
        "{\"op\":\"load_circuit\",\"name\":\"C17\"}\n{\"op\":\"shutdown\"}\n");
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let server =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] devnull
      devnull devnull
  in
  Unix.close devnull;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill server Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server)
      end;
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ socket; requests; responses ])
    (fun () ->
      let rec wait_listening tries =
        match Iddq_server.Client.connect ~socket with
        | Ok c -> Iddq_server.Client.close c
        | Error e ->
          if tries = 0 then Alcotest.failf "serve never listened: %s" e;
          Unix.sleepf 0.05;
          wait_listening (tries - 1)
      in
      wait_listening 100;
      let client_status =
        Sys.command
          (Filename.quote_command exe ~stdin:requests ~stdout:responses
             [ "client"; "--socket"; socket ])
      in
      Alcotest.(check int) "client exits 0" 0 client_status;
      let server_status = snd (Unix.waitpid [] server) in
      reaped := true;
      Alcotest.(check bool) "serve exits 0" true
        (server_status = Unix.WEXITED 0);
      let lines =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' (read_file responses))
      in
      Alcotest.(check (list bool)) "two ok response lines" [ true; true ]
        (List.map
           (fun l ->
             match Iddq_util.Json.parse l with
             | Ok j -> Iddq_util.Json.member "ok" j <> None
             | Error _ -> false)
           lines);
      Alcotest.(check bool) "socket file removed" false
        (Sys.file_exists socket))

(* [client] against a server that accepts the connection and closes it
   before the request line arrives on stdin: the write fails, and the
   client reports it as an [error:] line with exit status 1 instead of
   dying of SIGPIPE. *)
let test_client_closed_server_exit_1 () =
  let socket = Filename.temp_file "iddq-cli-closed" ".sock" in
  Sys.remove socket;
  let err = Filename.temp_file "iddq-cli-closed" ".err" in
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let devnull = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  (* the client starts with SIGPIPE at its default action, as from a
     shell: ignoring it is the client's own job.  This process ignores
     it for its own write to the client's stdin. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let client =
    Unix.create_process exe
      [| exe; "client"; "--socket"; socket |]
      stdin_r devnull err_fd
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter Unix.close [ stdin_r; err_fd; devnull ];
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill client Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] client)
      end;
      (try Unix.close stdin_w with Unix.Unix_error _ -> ());
      Unix.close listener;
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ socket; err ])
    (fun () ->
      (match Unix.select [ listener ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "client never connected"
      | _ ->
        let peer, _ = Unix.accept ~cloexec:true listener in
        Unix.close peer);
      let line = "{\"op\":\"metrics\"}\n" in
      ignore (Unix.write_substring stdin_w line 0 (String.length line));
      Unix.close stdin_w;
      let status = snd (Unix.waitpid [] client) in
      reaped := true;
      let stderr = read_file err in
      Alcotest.(check bool)
        (Printf.sprintf "client exits 1 (stderr %S)" stderr)
        true
        (status = Unix.WEXITED 1);
      Alcotest.(check bool) "error line" true
        (String.starts_with ~prefix:"error:" stderr))

(* [campaign --out] naming a FIFO is refused before any read, with an
   [error:] line and exit status 1; [--fresh] does not delete it. *)
let test_campaign_fifo_store_exit_1 () =
  let fifo = Filename.temp_file "iddq-cli-fifo" ".jsonl" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  let err = Filename.temp_file "iddq-cli-fifo" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ fifo; err ])
    (fun () ->
      List.iter
        (fun extra ->
          let what = String.concat " " ("campaign" :: extra) in
          let status, fired =
            Test_campaign.with_fifo_watchdog fifo (fun () ->
                Sys.command
                  (Filename.quote_command exe ~stdout:Filename.null
                     ~stderr:err
                     ([
                        "campaign"; "--circuits"; "C17"; "--methods";
                        "standard"; "--seeds"; "1"; "--out"; fifo; "--quiet";
                      ]
                     @ extra)))
          in
          Alcotest.(check bool) (what ^ ": returns before the watchdog") false
            fired;
          Alcotest.(check int) (what ^ ": exit status") 1 status;
          Alcotest.(check bool) (what ^ ": error line") true
            (String.starts_with ~prefix:"error:" (read_file err));
          Alcotest.(check bool) (what ^ ": FIFO kept") true
            ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO))
        [ []; [ "--fresh" ] ])

let test_atpg_summary_single_spaced () =
  let lines = String.split_on_char '\n' (run_capture [ "atpg"; "-c"; "C17" ]) in
  Alcotest.(check (list string))
    "atpg summary lines"
    [
      "c17: 34 collapsed stuck-at faults";
      "33 vectors (32 random + 1 generated)";
      "coverage 100.0%, efficiency 100.0% (0 untestable, 0 aborted)";
    ]
    (List.filter (fun l -> l <> "") lines)

let tests =
  [
    Alcotest.test_case "atpg summary single-spaced" `Quick
      test_atpg_summary_single_spaced;
    Alcotest.test_case "synopsis = dispatch table" `Quick
      test_synopsis_matches_dispatch;
    Alcotest.test_case "unknown subcommand enumerates" `Quick
      test_unknown_subcommand_enumerates;
    Alcotest.test_case "bad values exit 1" `Quick test_bad_values_exit_1;
    Alcotest.test_case "campaign resumes through the CLI" `Quick
      test_campaign_resumes_through_cli;
    Alcotest.test_case "serve and client through the CLI" `Quick
      test_serve_and_client_through_cli;
    Alcotest.test_case "client to a closed server exits 1" `Quick
      test_client_closed_server_exit_1;
    Alcotest.test_case "campaign FIFO store exits 1" `Quick
      test_campaign_fifo_store_exit_1;
  ]
