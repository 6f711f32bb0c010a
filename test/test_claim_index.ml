(* EXPERIMENTS.md's claim index names the test bounding each claim as
   `group` "case" (several cases may follow one group).  Every such
   pair must be a case the suite registers, so renaming or deleting a
   case cannot silently orphan the claim that cites it, and no row may
   say its claim is "not yet checked". *)

(* The executable sits in a dune build tree, [<root>/_build/<context>/
   test/main.exe].  The build tree's copy of the file is a declared dep
   of the test stanza, fresh under [dune runtest] but stale after an
   edit when the executable is run directly ([dune exec] builds the
   executable, not the test's deps), so the source copy at [<root>]
   wins whenever there is one.  A sandboxed run finds no [_build]
   parent and reads its own fresh dep; outside any build tree the
   working directory's copy serves. *)
let experiments_md ?(exe = Sys.executable_name) () =
  let context = Filename.dirname (Filename.dirname exe) in
  let build = Filename.dirname context in
  let source =
    if Filename.basename build = "_build" then
      [ Filename.concat (Filename.dirname build) "EXPERIMENTS.md" ]
    else []
  in
  List.find Sys.file_exists
    (source @ [ Filename.concat context "EXPERIMENTS.md"; "EXPERIMENTS.md" ])

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* The table rows of the "## Claim index" section, up to the next
   section heading. *)
let index_rows lines =
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let rec skip = function
    | [] -> []
    | l :: tl -> if starts_with "## Claim index" l then take [] tl else skip tl
  and take acc = function
    | l :: tl when not (starts_with "## " l) ->
      take (if starts_with "|" l then l :: acc else acc) tl
    | _ -> List.rev acc
  in
  skip lines

let last_cell row =
  let cells = List.filter (fun c -> String.trim c <> "") (String.split_on_char '|' row) in
  match List.rev cells with [] -> "" | last :: _ -> last

(* The last cell of a row, tokenized: a backticked span opens a group,
   and each double-quoted span after it is one of that group's cases.
   A backticked span no quote follows (a file, a workload) names no
   case. *)
let pairs_of_row row =
  let cell = last_cell row in
  let n = String.length cell in
  let span i close =
    match String.index_from_opt cell (i + 1) close with
    | Some j -> Some (String.sub cell (i + 1) (j - i - 1), j + 1)
    | None -> None
  in
  let rec scan i group acc =
    if i >= n then List.rev acc
    else
      match cell.[i] with
      | '`' -> (
        match span i '`' with
        | Some (g, k) -> scan k (Some g) acc
        | None -> List.rev acc)
      | '"' -> (
        match (span i '"', group) with
        | Some (case, k), Some g -> scan k group ((g, case) :: acc)
        | Some (_, k), None -> scan k group acc
        | None, _ -> List.rev acc)
      | _ -> scan (i + 1) group acc
  in
  scan 0 None []

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let tests suites =
  let index () = index_rows (read_lines (experiments_md ())) in
  let registered =
    List.concat_map
      (fun (group, cases) -> List.map (fun (case, _, _) -> (group, case)) cases)
      suites
  in
  let check () =
    let pairs = List.concat_map pairs_of_row (index ()) in
    Alcotest.(check bool) "the claim index names some cases" true (pairs <> []);
    Alcotest.(check (list (pair string string)))
      "named cases the suite does not register" []
      (List.filter (fun pair -> not (List.mem pair registered)) pairs)
  in
  (* A claim stays in the index only with a test that bounds it. *)
  let unchecked () =
    Alcotest.(check (list string))
      "rows whose test reads \"not yet checked\"" []
      (List.filter
         (fun row -> contains ~sub:"not yet checked" (last_cell row))
         (index ()))
  in
  (* An edited source copy is read, not the build tree's older one. *)
  let source_wins () =
    let root = Filename.temp_dir "iddq-claim-index" "" in
    let context = Filename.concat (Filename.concat root "_build") "default" in
    let dirs = [ root; Filename.concat root "_build"; context ] in
    let copies =
      [ Filename.concat root "EXPERIMENTS.md"; Filename.concat context "EXPERIMENTS.md" ]
    in
    List.iter (fun d -> if d <> root then Sys.mkdir d 0o755) dirs;
    List.iter (fun f -> Out_channel.with_open_bin f ignore) copies;
    let found =
      experiments_md ~exe:(Filename.concat context "test/main.exe") ()
    in
    List.iter Sys.remove copies;
    List.iter Sys.rmdir (List.rev dirs);
    Alcotest.(check string) "the source copy" (List.hd copies) found
  in
  [
    Alcotest.test_case "every named case is registered" `Quick check;
    Alcotest.test_case "no claim is unchecked" `Quick unchecked;
    Alcotest.test_case "a stale build copy is never read" `Quick source_wins;
  ]
