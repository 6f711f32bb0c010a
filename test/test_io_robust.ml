(* The I/O robustness layer: leak-proof channel handling, atomic
   writes, the bench OUTPUT regression, print/parse round-trip
   properties, and a bounded mutation-fuzz smoke pass. *)

module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error
module Rng = Iddq_util.Rng
module Bench_io = Iddq_netlist.Bench_io
module Generator = Iddq_netlist.Generator
module Circuit = Iddq_netlist.Circuit
module Library = Iddq_celllib.Library
module Library_io = Iddq_celllib.Library_io
module Pattern_io = Iddq_patterns.Pattern_io
module Harness = Iddq_fuzz.Harness

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Bench OUTPUT handling (regression: add_output was the one Builder
   call not guarded against Invalid_argument)                          *)
(* ------------------------------------------------------------------ *)

let c17_text = Bench_io.to_string (Iddq_netlist.Iscas.c17 ())

let test_bench_duplicate_output () =
  (* duplicate OUTPUT lines are idempotent, not an error *)
  let doubled = c17_text ^ "OUTPUT(22)\nOUTPUT(22)\n" in
  match Bench_io.parse_string doubled with
  | Error e -> Alcotest.failf "duplicate OUTPUT rejected: %s" (Io_error.to_string e)
  | Ok c ->
    let reference =
      match Bench_io.parse_string c17_text with
      | Ok c -> c
      | Error e -> Alcotest.failf "c17 reparse: %s" (Io_error.to_string e)
    in
    Alcotest.(check int) "output count unchanged"
      (Circuit.num_outputs reference)
      (Circuit.num_outputs c)

let test_bench_output_undeclared () =
  (* an OUTPUT naming a net that never gets declared must surface as a
     structured Error from freeze, never an exception *)
  match Bench_io.parse_string (c17_text ^ "OUTPUT(no_such_net)\n") with
  | Ok _ -> Alcotest.fail "undeclared OUTPUT accepted"
  | Error e ->
    let msg = Io_error.to_string e in
    if not (contains msg "no_such_net") then
      Alcotest.failf "error does not name the net: %s" msg

let test_bench_output_malformed () =
  let cases = [ "OUTPUT()\n"; "OUTPUT(a, b)\n"; "OUTPUT\n" ] in
  List.iter
    (fun extra ->
      match Bench_io.parse_string (c17_text ^ extra) with
      | Ok _ -> Alcotest.failf "malformed %S accepted" (String.trim extra)
      | Error _ -> ())
    cases

(* ------------------------------------------------------------------ *)
(* Io primitives                                                       *)
(* ------------------------------------------------------------------ *)

let test_read_file_missing () =
  let path = tmp_path "iddq-no-such-file-421.txt" in
  match Io.read_file path with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error e ->
    let msg = Io_error.to_string e in
    if not (contains msg path) then
      Alcotest.failf "error does not carry the path: %s" msg

let no_tmp_leftovers base =
  let dir = Filename.dirname base and leaf = Filename.basename base in
  Array.iter
    (fun f ->
      if
        String.length f > String.length leaf
        && String.sub f 0 (String.length leaf) = leaf
      then Alcotest.failf "scratch file left behind: %s" f)
    (Sys.readdir dir)

let test_write_file_atomic_overwrite () =
  let path = tmp_path "iddq-atomic-overwrite.txt" in
  (match Io.write_file_atomic path "first\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first write: %s" (Io_error.to_string e));
  (match Io.write_file_atomic path "second\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second write: %s" (Io_error.to_string e));
  (match Io.read_file path with
  | Ok s -> Alcotest.(check string) "overwritten" "second\n" s
  | Error e -> Alcotest.failf "read back: %s" (Io_error.to_string e));
  no_tmp_leftovers path;
  Sys.remove path

let test_atomic_preserves_on_crash () =
  (* a callback that dies mid-write must leave the previous artifact
     byte-identical and remove its scratch file *)
  let path = tmp_path "iddq-atomic-crash.txt" in
  (match Io.write_file_atomic path "precious\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed write: %s" (Io_error.to_string e));
  (try
     ignore
       (Io.with_out_atomic path (fun oc ->
            output_string oc "half-writ";
            raise Exit));
     Alcotest.fail "callback exception swallowed"
   with Exit -> ());
  (match Io.read_file path with
  | Ok s -> Alcotest.(check string) "previous contents intact" "precious\n" s
  | Error e -> Alcotest.failf "read back: %s" (Io_error.to_string e));
  no_tmp_leftovers path;
  Sys.remove path

let test_atomic_missing_dir () =
  match Io.write_file_atomic "/iddq-no-such-dir-421/x.txt" "data" with
  | Ok () -> Alcotest.fail "write into missing directory succeeded"
  | Error _ -> ()

let test_fd_stable_across_failures () =
  match Io.open_fd_count () with
  | None -> () (* no /proc on this platform; the invariant is untestable *)
  | Some before ->
    let missing = tmp_path "iddq-fd-missing.txt" in
    let corrupt = tmp_path "iddq-fd-corrupt.txt" in
    (match Io.write_file_atomic corrupt "%%% definitely not a netlist %%%\n" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "corpus write: %s" (Io_error.to_string e));
    for _ = 1 to 50 do
      ignore (Bench_io.parse_file missing);
      ignore (Bench_io.parse_file corrupt);
      ignore (Library_io.parse_file corrupt);
      ignore (Pattern_io.read_file ~expected_width:4 corrupt);
      ignore (Iddq_campaign.Spec.parse_file corrupt)
    done;
    Sys.remove corrupt;
    (match Io.open_fd_count () with
    | Some after ->
      Alcotest.(check int) "descriptor count stable" before after
    | None -> Alcotest.fail "/proc/self/fd vanished mid-test")

(* ------------------------------------------------------------------ *)
(* Line numbering of the line-oriented formats                         *)
(* ------------------------------------------------------------------ *)

(* Each document puts its bad line after a comment-only line, a blank
   line, a good line with a trailing comment and a whitespace-only
   line, so a reader that miscounts any of them names the wrong line.
   The file variant must put the path in front. *)
let test_line_numbers_past_comments () =
  let c17 = Iddq_netlist.Iscas.c17 () in
  let ch = Iddq_analysis.Charac.make ~library:Library.default c17 in
  let preamble good = "# header comment\n\n" ^ good ^ "   # trailing note\n \t  \n" in
  let cases =
    [
      ( "bench",
        preamble "INPUT(1)" ^ "10 = FROB(1, 3)\n",
        "line 5: unknown gate kind \"FROB\"",
        (fun s -> Result.map ignore (Bench_io.parse_string s)),
        fun p -> Result.map ignore (Bench_io.parse_file p) );
      ( "pattern",
        preamble "101" ^ "1x1\n",
        "line 5: bad character 'x'",
        (fun s -> Result.map ignore (Pattern_io.of_string ~expected_width:3 s)),
        fun p -> Result.map ignore (Pattern_io.read_file ~expected_width:3 p) );
      ( "partition",
        preamble "module 0: 10 16" ^ "module 2: 11 19 22 23\n",
        "line 5: module ids must be dense and in order",
        (fun s -> Result.map ignore (Iddq_core.Partition_io.of_string ch s)),
        fun p -> Result.map ignore (Iddq_core.Partition_io.read_file ch p) );
      ( "library",
        preamble "[technology]" ^ "vdd 3.3\n",
        "line 5: expected 'key = value'",
        (fun s -> Result.map ignore (Library_io.parse_string s)),
        fun p -> Result.map ignore (Library_io.parse_file p) );
      ( "spec",
        preamble "circuits = C17" ^ "seeds = 1, x\n",
        "line 5: invalid integer \"x\"",
        (fun s -> Result.map ignore (Iddq_campaign.Spec.parse s)),
        fun p -> Result.map ignore (Iddq_campaign.Spec.parse_file p) );
    ]
  in
  List.iter
    (fun (what, doc, expected, parse, parse_file) ->
      let got = function
        | Ok () -> Alcotest.failf "%s: malformed document accepted" what
        | Error e -> Io_error.to_string e
      in
      Alcotest.(check string) what expected (got (parse doc));
      let path = tmp_path ("iddq-line-pin-" ^ what ^ ".txt") in
      (match Io.write_file_atomic path doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: write: %s" what (Io_error.to_string e));
      let from_file = got (parse_file path) in
      Sys.remove path;
      Alcotest.(check string) (what ^ " (file)")
        (path ^ ":" ^ String.sub expected 5 (String.length expected - 5))
        from_file)
    cases

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let make_circuit ~gates ~seed =
  let rng = Rng.create seed in
  Generator.layered_dag ~rng ~name:"rt" ~num_inputs:6 ~num_outputs:3
    ~num_gates:gates ~depth:(1 + (gates / 8)) ()

let qcheck_bench_roundtrip =
  QCheck.Test.make ~name:"bench print/parse is a fixpoint" ~count:25
    QCheck.(pair (int_range 10 80) (int_range 1 100000))
    (fun (gates, seed) ->
      let c = make_circuit ~gates ~seed in
      let text = Bench_io.to_string c in
      match Bench_io.parse_string ~name:(Circuit.name c) text with
      | Error _ -> false
      | Ok c' -> Bench_io.to_string c' = text)

let qcheck_pattern_roundtrip =
  QCheck.Test.make ~name:"pattern set survives print/parse" ~count:40
    QCheck.(pair (int_range 1 16) (pair (int_range 1 40) (int_range 1 100000)))
    (fun (width, (count, seed)) ->
      let rng = Rng.create seed in
      let vs =
        Array.init count (fun _ -> Array.init width (fun _ -> Rng.bool rng))
      in
      match Pattern_io.of_string ~expected_width:width (Pattern_io.to_string vs) with
      | Error _ -> false
      | Ok vs' -> vs = vs')

let test_library_roundtrip () =
  let text = Library_io.to_string Library.default in
  match Library_io.parse_string ~name:(Library.name Library.default) text with
  | Error e -> Alcotest.failf "reparse: %s" (Io_error.to_string e)
  | Ok lib ->
    Alcotest.(check string) "print/parse fixpoint" text (Library_io.to_string lib)

(* ------------------------------------------------------------------ *)
(* Bounded mutation-fuzz smoke (the full pass is `make fuzz-smoke`)    *)
(* ------------------------------------------------------------------ *)

let test_mutation_smoke () =
  let r = Harness.run ~seed:0xF422 ~iterations_per_target:120 () in
  if r.Harness.total < 120 * 7 then
    Alcotest.failf "too few inputs exercised: %d" r.Harness.total;
  if not (Harness.passed r) then begin
    Harness.pp_report stderr r;
    Alcotest.fail "mutation smoke failed (crash or descriptor leak)"
  end

let tests =
  [
    Alcotest.test_case "bench duplicate OUTPUT idempotent" `Quick
      test_bench_duplicate_output;
    Alcotest.test_case "bench undeclared OUTPUT is Error" `Quick
      test_bench_output_undeclared;
    Alcotest.test_case "bench malformed OUTPUT is Error" `Quick
      test_bench_output_malformed;
    Alcotest.test_case "read_file missing carries path" `Quick
      test_read_file_missing;
    Alcotest.test_case "write_file_atomic overwrites cleanly" `Quick
      test_write_file_atomic_overwrite;
    Alcotest.test_case "atomic write preserves target on crash" `Quick
      test_atomic_preserves_on_crash;
    Alcotest.test_case "atomic write into missing dir is Error" `Quick
      test_atomic_missing_dir;
    Alcotest.test_case "no fd leak across failing reads" `Quick
      test_fd_stable_across_failures;
    Alcotest.test_case "line formats number lines past comments" `Quick
      test_line_numbers_past_comments;
    QCheck_alcotest.to_alcotest qcheck_bench_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_pattern_roundtrip;
    Alcotest.test_case "library print/parse fixpoint" `Quick
      test_library_roundtrip;
    Alcotest.test_case "mutation fuzz smoke" `Slow test_mutation_smoke;
  ]
