(* Mutation-fuzz harness for the persistence boundary.

   Every front-end parser plus the JSONL store is driven with
   thousands of corrupted variants of valid files.  The contract under
   test is the Error contract of the robustness layer: every outcome
   is [Ok] or [Error] — never an escaped exception — every circuit a
   netlist parser accepts passes [Circuit.validate] and characterizes
   consistently, implies as PODEM's whole-circuit oracle does and
   fault-simulates as the scalar stuck-at oracle does, every [Error] of a line-oriented format names a line of its input
   or none, and no file
   descriptor leaks, measured by comparing the /proc/self/fd
   population before and after the run. *)

module Rng = Iddq_util.Rng
module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error
module Circuit = Iddq_netlist.Circuit
module Bench_io = Iddq_netlist.Bench_io
module Generator = Iddq_netlist.Generator
module Builder = Iddq_netlist.Builder
module Gate = Iddq_netlist.Gate
module Iscas = Iddq_netlist.Iscas
module Library = Iddq_celllib.Library
module Library_io = Iddq_celllib.Library_io
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Partition_io = Iddq_core.Partition_io
module Seeds = Iddq_evolution.Seeds
module Standard = Iddq_baseline.Standard
module Pattern_io = Iddq_patterns.Pattern_io
module Spec = Iddq_campaign.Spec
module Store = Iddq_campaign.Store
module Job_result = Iddq_campaign.Job_result
module Stuck_at = Iddq_defects.Stuck_at
module Podem = Iddq_atpg.Podem
module Frame = Iddq_server.Frame
module Protocol = Iddq_server.Protocol

type target = {
  name : string;
  corpus : string list;  (** Valid documents the mutations start from. *)
  parse : string -> bool;  (** [true] on [Ok]; must never raise. *)
  parse_path : (string -> bool) option;
      (** File-based variant, exercised on a temp file every few
          iterations to cover the descriptor-handling paths. *)
}

type crash = { target : string; exn : string; input : string }

type report = {
  total : int;
  oks : int;
  errors : int;
  crashes : crash list;
  fd_before : int option;
  fd_after : int option;
}

let passed r =
  r.crashes = []
  &&
  match r.fd_before, r.fd_after with
  | Some a, Some b -> a = b
  | _ -> true (* no /proc: descriptor accounting unavailable *)

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)
(* ------------------------------------------------------------------ *)

let circuit_corpus () =
  let gen ~gates ~seed =
    let rng = Rng.create seed in
    Generator.layered_dag ~rng ~name:"fuzz" ~num_inputs:6 ~num_outputs:3
      ~num_gates:gates ~depth:(1 + (gates / 8)) ()
  in
  (* the stuck-at region roots the generator never makes: [g] read on
     both pins of its one reader, an output that fans out, an input
     that is an output *)
  let roots =
    let b = Builder.create ~name:"roots" () in
    List.iter (Builder.add_input b) [ "a"; "b"; "c" ];
    List.iter
      (fun (name, kind, fanins) -> Builder.add_gate b name kind fanins)
      [
        ("g", Gate.And, [ "a"; "b" ]);
        ("h", Gate.Nand, [ "g"; "g" ]);
        ("o", Gate.Or, [ "h"; "c" ]);
        ("p", Gate.Xor, [ "o"; "a" ]);
      ];
    List.iter (Builder.add_output b) [ "o"; "p"; "a" ];
    Builder.freeze_exn b
  in
  [ Iscas.c17 (); gen ~gates:24 ~seed:11; gen ~gates:60 ~seed:12; roots ]

let ok b = match b with Ok _ -> true | Error _ -> false

(* The result of a line-oriented parser on [input], after checking
   that an [Error] names no line or one of [input]'s lines, numbered
   from 1 as [Io.iter_lines] numbers them.  A line out of range
   raises. *)
let numbered input r =
  (match r with
  | Error { Io_error.line = Some l; _ } ->
    let lines = List.length (String.split_on_char '\n' input) in
    if l < 1 || l > lines then
      failwith (Printf.sprintf "Error names line %d of a %d-line input" l lines)
  | Ok _ | Error _ -> ());
  r

(* The characterization of an accepted circuit, checked through the
   public API gate by gate: [T(g)] is the union over fanins of
   [T(f) + 1] (slot 1 for an input), and its highest slot is the
   gate's level.  A mismatch raises; the characterization is returned. *)
let check_charac c =
  let ch = Charac.make ~library:Library.default c in
  let ni = Circuit.num_inputs c in
  let slots = Charac.depth ch + 2 in
  for g = 0 to Charac.num_gates ch - 1 do
    let id = Circuit.node_of_gate c g in
    let expected = Array.make slots false in
    Circuit.iter_fanins c id (fun src ->
        if src < ni then expected.(1) <- true
        else
          Charac.iter_switch_slots ch (src - ni) (fun s -> expected.(s + 1) <- true));
    let highest = ref 0 in
    for s = 0 to slots - 1 do
      if Charac.can_switch_at ch g s <> expected.(s) then
        failwith (Printf.sprintf "Charac: gate %d slot %d breaks T(g)'s recurrence" g s);
      if expected.(s) then highest := s
    done;
    if !highest <> Circuit.level c id then
      failwith
        (Printf.sprintf "Charac: gate %d switches last at %d, its level is %d" g
           !highest (Circuit.level c id))
  done;
  ch

(* Both partition builders on a characterized circuit with a gate: a
   chain partition keeps every module within its 3-gate cap, the
   standard partitioner builds exactly the requested near-equal sizes,
   and both are consistent.  A violation raises. *)
let check_partitions ch =
  let n = Charac.num_gates ch in
  let check what p bad =
    (match Partition.check_consistent p with
    | Ok () -> ()
    | Error e -> failwith (what ^ ": " ^ e));
    if bad (List.map (Partition.size p) (Partition.module_ids p)) then
      failwith (what ^ ": module sizes out of contract")
  in
  check "Seeds.chain_partition"
    (Seeds.chain_partition ~rng:(Rng.create 1) ~module_size:3 ch)
    (List.exists (fun s -> s > 3));
  let k = Stdlib.min 3 n in
  check "Standard.partition_uniform"
    (Standard.partition_uniform ch ~num_modules:k)
    (( <> ) (List.init k (fun i -> (n / k) + if i < n mod k then 1 else 0)))

(* PODEM's event-driven implication against its whole-circuit oracle
   ({!Podem.generate_checked}) on the first 64 faults of the full list,
   at 4 backtracks: parser-accepted shapes the generator never makes —
   repeated fanins, buffer and inverter chains, outputs that are
   inputs — reach every evaluation rule.  A mismatch raises. *)
let check_implication c =
  let podem = Podem.prepare c in
  List.iteri
    (fun i fault ->
      if i < 64 then
        match Podem.generate_checked ~max_backtracks:4 podem fault with
        | Ok _ -> ()
        | Error m -> failwith ("Podem implication: " ^ m))
    (Stuck_at.full_fault_list c)

(* The stuck-at fault simulators' fanout-free regions against the
   scalar [Stuck_at.detects] on the first 64 faults of the full list
   over 5 random vectors: every matrix bit, and every fault's first
   lane in one loaded {!Stuck_at.Block}.  Parser-accepted shapes —
   repeated fanins, outputs that are inputs, gates nobody reads — are
   exactly the region-root cases.  A mismatch raises. *)
let check_fault_sim c =
  let rng = Rng.create 5 in
  let vectors =
    Array.init 5 (fun _ -> Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng))
  in
  let faults = List.filteri (fun i _ -> i < 64) (Stuck_at.full_fault_list c) in
  let m = Stuck_at.detection_matrix c ~vectors ~faults in
  let block = Stuck_at.Block.create c in
  Stuck_at.Block.load block vectors;
  List.iteri
    (fun i fault ->
      let first = ref (-1) in
      Array.iteri
        (fun v vector ->
          let d = Stuck_at.detects c fault vector in
          if d && !first < 0 then first := v;
          if Iddq_util.Bitvec.get m.Iddq_defects.Fault_sim.rows.(i) v <> d then
            failwith
              (Format.asprintf "Stuck_at.detection_matrix: %a, vector %d"
                 (Stuck_at.pp_fault c) fault v))
        vectors;
      if Stuck_at.Block.first_lane block fault <> !first then
        failwith
          (Format.asprintf "Stuck_at.Block.first_lane: %a" (Stuck_at.pp_fault c)
             fault))
    faults

(* A circuit a netlist parser accepts must pass [Circuit.validate] —
   its structure and the levelization built with it — characterize
   consistently, imply as PODEM's oracle does, fault-simulate as the
   scalar oracle does and, if it has a gate, partition within
   contract; one that does not raises, so [run] reports it as a
   crash. *)
let accepted = function
  | Error _ -> false
  | Ok c -> (
    match Circuit.validate c with
    | Ok () ->
      let ch = check_charac c in
      check_implication c;
      check_fault_sim c;
      if Charac.num_gates ch > 0 then check_partitions ch;
      true
    | Error e -> failwith ("accepted circuit fails Circuit.validate: " ^ e))

let targets () =
  let circuits = circuit_corpus () in
  let c17 = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c17 in
  let partition =
    Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |]
  in
  let vec_rng = Rng.create 13 in
  let vectors =
    Array.init 24 (fun _ -> Array.init 5 (fun _ -> Rng.bool vec_rng))
  in
  let job = List.hd (Spec.jobs { Spec.default with Spec.circuits = [ "C17" ] }) in
  let metrics = Iddq_util.Metrics.(snapshot (create ())) in
  let record =
    Job_result.failure ~job ~derived_seed:7 ~elapsed:0.5 ~metrics "fuzz seed"
  in
  let record_line = Job_result.to_line record in
  let done_line =
    match Iddq.Pipeline.run_result Iddq.Pipeline.Standard c17 with
    | Ok r ->
      Job_result.to_line
        (Job_result.of_run ~job ~derived_seed:7 ~elapsed:0.5 ~metrics r)
    | Error e -> failwith (Iddq.Pipeline.error_to_string e)
  in
  (* a failure record as older stores wrote it: zero measurements
     under the run's short keys (area, test_time, min_disc) *)
  let zeroed_failure_line =
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
     \"wbuf_peak\":0}}"
  in
  [
    {
      name = "bench";
      corpus = List.map Bench_io.to_string circuits;
      parse = (fun s -> accepted (numbered s (Bench_io.parse_string s)));
      parse_path = Some (fun p -> accepted (Bench_io.parse_file p));
    };
    {
      name = "library";
      corpus = [ Library_io.to_string Library.default ];
      parse = (fun s -> ok (numbered s (Library_io.parse_string s)));
      parse_path = Some (fun p -> ok (Library_io.parse_file p));
    };
    {
      name = "pattern";
      corpus = [ Pattern_io.to_string vectors ];
      parse =
        (fun s -> ok (numbered s (Pattern_io.of_string ~expected_width:5 s)));
      parse_path = Some (fun p -> ok (Pattern_io.read_file ~expected_width:5 p));
    };
    {
      name = "partition";
      corpus = [ Partition_io.to_string partition ];
      parse = (fun s -> ok (numbered s (Partition_io.of_string ch s)));
      parse_path = Some (fun p -> ok (Partition_io.read_file ch p));
    };
    {
      name = "spec";
      corpus = [ Spec.to_string Spec.default ];
      parse = (fun s -> ok (numbered s (Spec.parse s)));
      parse_path = Some (fun p -> ok (Spec.parse_file p));
    };
    {
      name = "server-frame";
      corpus =
        (let handle = Digest.to_hex (Digest.string "corpus") in
         let reqs =
           [
             Protocol.Load_circuit { name = Some "C17"; bench = None };
             Protocol.Load_circuit
               { name = None; bench = Some (Bench_io.to_string c17) };
             Protocol.Characterize { handle };
             Protocol.Partition
               {
                 handle;
                 method_ = Iddq.Pipeline.Evolution;
                 seed = 7;
                 module_size = Some 4;
                 require_feasible = true;
               };
             Protocol.Fault_sim
               {
                 handle;
                 method_ = Iddq.Pipeline.Standard;
                 seed = 1;
                 vectors = 16;
                 defects = 10;
                 defect_current = 2.0e-6;
               };
             Protocol.Testset
               {
                 handle;
                 seed = 4;
                 random_vectors = 8;
                 max_backtracks = 100;
                 budget = Some 64;
                 strategy = Iddq_atpg.Atpg.Essential;
               };
             Protocol.Campaign_submit
               { spec = Spec.to_string Spec.default; domains = 2 };
             Protocol.Campaign_status { campaign = "campaign-1" };
             Protocol.Metrics;
             Protocol.Shutdown;
           ]
         in
         [
           String.concat ""
             (List.mapi
                (fun i r -> Frame.encode (Protocol.request_to_json ~id:i r))
                reqs);
         ]);
      parse =
        (* decode only (no execution): feed the byte stream to the
           incremental decoder in small chunks and run every decoded
           frame through the request parser.  The contract is the
           server's: whatever the bytes, events come out as values —
           an Oversized event poisons the stream terminally, exactly
           as a connection would be dropped. *)
        (fun s ->
          let d = Frame.create ~max_frame:(1 lsl 20) () in
          let clean = ref true in
          let rec drain () =
            match Frame.next d with
            | None -> `More
            | Some (Frame.Frame j) ->
              (match Protocol.request_of_json j with
              | Ok _ -> ()
              | Error _ -> clean := false);
              drain ()
            | Some (Frame.Malformed _) ->
              clean := false;
              drain ()
            | Some (Frame.Oversized _) ->
              clean := false;
              `Poisoned
          in
          let len = String.length s in
          let rec go pos =
            if pos >= len then `More
            else begin
              let n = min 7 (len - pos) in
              Frame.feed d (String.sub s pos n);
              match drain () with
              | `More -> go (pos + n)
              | `Poisoned -> `Poisoned
            end
          in
          (match go 0 with `More | `Poisoned -> ());
          !clean && Frame.buffered d = 0);
      parse_path = None;
    };
    {
      name = "atpg-facade";
      (* end-to-end: whatever bytes parse as a circuit must flow
         through the Result-typed Atpg facade without an exception —
         the deprecated raw entry points could throw on odd fault
         lists; the facade's contract is Ok/Error only.  A tiny budget
         keeps PODEM bounded on every surviving mutant. *)
      corpus = List.map Bench_io.to_string circuits;
      parse =
        (fun s ->
          match Bench_io.parse_string s with
          | Error _ -> false
          | Ok c -> begin
            let config =
              Iddq_atpg.Atpg.config ~max_backtracks:8 ~budget:16
                ~random_vectors:4 ~seed:5 ()
            in
            match Iddq_atpg.Atpg.run_result ~config c with
            | Ok _ -> true
            | Error _ -> false
          end);
      parse_path = None;
    };
    {
      name = "jsonl-store";
      corpus =
        [
          record_line ^ "\n" ^ record_line ^ "\n" ^ record_line ^ "\n";
          done_line ^ "\n";
          zeroed_failure_line ^ "\n";
        ];
      parse = (fun s -> ok (Job_result.of_line s));
      parse_path =
        Some
          (fun p ->
            match Store.open_ p with
            | Ok s ->
              (* a store over arbitrary bytes must still load (corrupt
                 lines drop) and take appends *)
              Store.append s record;
              Store.close s;
              true
            | Error _ -> false);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0xF422) ~iterations_per_target () =
  let fd_before = Io.open_fd_count () in
  let rng = Rng.create seed in
  let tmp = Filename.temp_file "iddq-fuzz" ".bin" in
  let total = ref 0 and oks = ref 0 and errors = ref 0 in
  let crashes = ref [] in
  let preview s =
    let s = if String.length s > 60 then String.sub s 0 60 ^ "..." else s in
    String.escaped s
  in
  List.iter
    (fun t ->
      List.iteri
        (fun i valid ->
          let n = iterations_per_target / List.length t.corpus in
          let n = if i = 0 then n + (iterations_per_target mod List.length t.corpus) else n in
          let current = ref valid in
          for step = 1 to n do
            let input = Mutate.mutate rng ~corpus:t.corpus !current in
            (* keep a drifting current so later mutations stack *)
            if Rng.int rng 3 = 0 then current := input;
            incr total;
            (match t.parse input with
            | true -> incr oks
            | false -> incr errors
            | exception e ->
              crashes :=
                { target = t.name; exn = Printexc.to_string e;
                  input = preview input }
                :: !crashes);
            match t.parse_path with
            | Some parse_path when step mod 5 = 0 -> begin
              (match Io.write_file_atomic tmp input with
              | Ok () -> ()
              | Error e -> failwith (Iddq_util.Io_error.to_string e));
              incr total;
              match parse_path tmp with
              | true -> incr oks
              | false -> incr errors
              | exception e ->
                crashes :=
                  { target = t.name ^ "(file)"; exn = Printexc.to_string e;
                    input = preview input }
                  :: !crashes
            end
            | _ -> ()
          done)
        t.corpus)
    (targets ());
  (try Sys.remove tmp with Sys_error _ -> ());
  let fd_after = Io.open_fd_count () in
  {
    total = !total;
    oks = !oks;
    errors = !errors;
    crashes = List.rev !crashes;
    fd_before;
    fd_after;
  }

let pp_report out r =
  Printf.fprintf out
    "fuzz: %d mutated inputs -> %d Ok, %d Error, %d escaped exception(s); \
     descriptors %s\n"
    r.total r.oks r.errors
    (List.length r.crashes)
    (match r.fd_before, r.fd_after with
    | Some a, Some b when a = b -> Printf.sprintf "stable (%d)" a
    | Some a, Some b -> Printf.sprintf "LEAKED (%d -> %d)" a b
    | _ -> "not measurable");
  List.iter
    (fun c ->
      Printf.fprintf out "  CRASH %-12s %s\n    input: \"%s\"\n" c.target c.exn
        c.input)
    r.crashes
