module Dot = Iddq_netlist.Dot
module Io_error = Iddq_util.Io_error
module Iscas = Iddq_netlist.Iscas
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Partition_io = Iddq_core.Partition_io
module Library = Iddq_celllib.Library

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let test_dot_plain () =
  let c = Iscas.c17 () in
  let dot = Dot.of_circuit c in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "input box" true (contains dot "\"1\" [shape=box]");
  Alcotest.(check bool) "edge 10 -> 22" true (contains dot "\"10\" -> \"22\"");
  Alcotest.(check bool) "output double circle" true
    (contains dot "doublecircle");
  Alcotest.(check bool) "gate kind label" true (contains dot "NAND");
  Alcotest.(check bool) "closed" true (contains dot "}")

let test_dot_clustered () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let dot = Dot.of_circuit ~module_of_gate:(Partition.module_of_gate p) c in
  Alcotest.(check bool) "cluster 0" true (contains dot "subgraph cluster_0");
  Alcotest.(check bool) "cluster 1" true (contains dot "subgraph cluster_1");
  Alcotest.(check bool) "fill colours" true (contains dot "fillcolor")

let test_partition_io_roundtrip () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let text = Partition_io.to_string p in
  match Partition_io.of_string ch text with
  | Error e -> Alcotest.failf "reload failed: %s" (Io_error.to_string e)
  | Ok q ->
    Alcotest.(check int) "modules" (Partition.num_modules p)
      (Partition.num_modules q);
    (* same grouping up to relabelling: compare canonical forms *)
    let canon r =
      List.map
        (fun m -> Array.to_list (Partition.members r m))
        (Partition.module_ids r)
      |> List.sort compare
    in
    Alcotest.(check bool) "same grouping" true (canon p = canon q)

let test_partition_io_errors () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let is_err s =
    match Partition_io.of_string ch s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unknown net" true (is_err "module 0: bogus\n");
  Alcotest.(check bool) "input not a gate" true (is_err "module 0: 1\n");
  Alcotest.(check bool) "duplicate gate" true
    (is_err "module 0: 10 10 11 16 19 22 23\n");
  Alcotest.(check bool) "missing gate" true (is_err "module 0: 10 11\n");
  Alcotest.(check bool) "sparse ids" true
    (is_err "module 1: 10 11 16 19 22 23\n");
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "garbage" true (is_err "hello world\n")

let test_partition_io_comments_tolerated () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let text = "# header\nmodule 0: 10 16 22  # cone of 22\nmodule 1: 11 19 23\n" in
  match Partition_io.of_string ch text with
  | Error e -> Alcotest.failf "comments broke parse: %s" (Io_error.to_string e)
  | Ok q -> Alcotest.(check int) "two modules" 2 (Partition.num_modules q)

let test_partition_io_file () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let p = Partition.create ch ~assignment:[| 0; 0; 0; 1; 1; 1 |] in
  let path = Filename.temp_file "iddq_part" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Partition_io.write_file path p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_file: %s" (Io_error.to_string e));
      match Partition_io.read_file ch path with
      | Ok q -> Alcotest.(check int) "modules" 2 (Partition.num_modules q)
      | Error e -> Alcotest.failf "read_file: %s" (Io_error.to_string e))

(* Tabs separate like spaces: the file [to_string] writes, with every
   space turned into a tab or a run of blanks, parses to the same
   assignment. *)
let test_partition_io_tabs () =
  let c = Iscas.c17 () in
  let ch = Charac.make ~library:Library.default c in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let text = Partition_io.to_string p in
  let respaced sep =
    String.concat sep (String.split_on_char ' ' text)
  in
  List.iter
    (fun (label, sep) ->
      match Partition_io.of_string ch (respaced sep) with
      | Error e -> Alcotest.failf "%s: %s" label (Io_error.to_string e)
      | Ok q ->
        Alcotest.(check (array int)) label (Partition.assignment p)
          (Partition.assignment q))
    [ ("tabs", "\t"); ("blank runs", " \t  \t") ]

let tests =
  [
    Alcotest.test_case "dot plain" `Quick test_dot_plain;
    Alcotest.test_case "dot clustered" `Quick test_dot_clustered;
    Alcotest.test_case "partition io roundtrip" `Quick test_partition_io_roundtrip;
    Alcotest.test_case "partition io errors" `Quick test_partition_io_errors;
    Alcotest.test_case "partition io comments" `Quick
      test_partition_io_comments_tolerated;
    Alcotest.test_case "partition io file" `Quick test_partition_io_file;
    Alcotest.test_case "partition io tabs" `Quick test_partition_io_tabs;
  ]
