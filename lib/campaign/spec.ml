module Pipeline = Iddq.Pipeline
module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error

type t = {
  circuits : string list;
  methods : Pipeline.method_ list;
  seeds : int list;
  module_sizes : int option list;
  max_generations : int option;
  timeout : float option;
  seed_reference_sizes : bool;
}

let default =
  {
    circuits = [ "C1908"; "C2670"; "C3540"; "C5315"; "C6288"; "C7552" ];
    methods = [ Pipeline.Evolution; Pipeline.Standard ];
    seeds = [ 42 ];
    module_sizes = [ None ];
    max_generations = None;
    timeout = None;
    seed_reference_sizes = true;
  }

type job = {
  index : int;
  id : string;
  circuit : string;
  method_ : Pipeline.method_;
  seed : int;
  module_size : int option;
  depends_on : string option;
}

let size_tag = function None -> "m-" | Some s -> Printf.sprintf "m%d" s

let job_id ~circuit ~method_ ~seed ~module_size =
  Printf.sprintf "%s:%s:s%d:%s" circuit
    (Pipeline.method_to_string method_)
    seed (size_tag module_size)

(* Hoist Evolution so that, walking the expansion in order, every
   dependency precedes its dependents; drop duplicate grid entries. *)
let canonical_methods methods =
  let methods =
    List.fold_left
      (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
      [] methods
  in
  if List.mem Pipeline.Evolution methods then
    Pipeline.Evolution :: List.filter (fun m -> m <> Pipeline.Evolution) methods
  else methods

let dedup l =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

let jobs t =
  let methods = canonical_methods t.methods in
  let has_evolution = List.mem Pipeline.Evolution methods in
  let next = ref 0 in
  List.concat_map
    (fun circuit ->
      List.concat_map
        (fun module_size ->
          List.concat_map
            (fun seed ->
              List.map
                (fun method_ ->
                  let depends_on =
                    match method_ with
                    | Pipeline.Standard | Pipeline.Refined_standard
                      when t.seed_reference_sizes && has_evolution ->
                      Some
                        (job_id ~circuit ~method_:Pipeline.Evolution ~seed
                           ~module_size)
                    | _ -> None
                  in
                  let index = !next in
                  incr next;
                  {
                    index;
                    id = job_id ~circuit ~method_ ~seed ~module_size;
                    circuit;
                    method_;
                    seed;
                    module_size;
                    depends_on;
                  })
                methods)
            (dedup t.seeds))
        (dedup t.module_sizes))
    (dedup t.circuits)

let validate t =
  let ( let* ) = Stdlib.Result.bind in
  let* () = if t.circuits = [] then Error "spec: no circuits" else Ok () in
  let* () = if t.methods = [] then Error "spec: no methods" else Ok () in
  let* () = if t.seeds = [] then Error "spec: no seeds" else Ok () in
  let* () =
    if t.module_sizes = [] then Error "spec: no module sizes" else Ok ()
  in
  let* () =
    match
      List.find_opt
        (fun c -> Iddq_netlist.Iscas.by_name c = None)
        t.circuits
    with
    | Some c ->
      Error
        (Printf.sprintf "spec: unknown circuit %S (known: %s)" c
           (String.concat ", " Iddq_netlist.Iscas.names))
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun s -> s <= 0) (List.filter_map Fun.id t.module_sizes) with
    | Some s -> Error (Printf.sprintf "spec: module size %d is not positive" s)
    | None -> Ok ()
  in
  match t.timeout with
  | Some l when l < 0.0 -> Error "spec: negative timeout"
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Spec-file syntax                                                    *)
(* ------------------------------------------------------------------ *)

let strip s = String.trim s

let split_values v =
  String.split_on_char ',' v |> List.map strip
  |> List.filter (fun s -> s <> "")

let parse_method s =
  match Pipeline.method_of_string s with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown method %S" s)

let parse_size = function
  | "default" | "auto" | "-" -> Ok None
  | s -> begin
    match int_of_string_opt s with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "invalid module size %S" s)
  end

let parse_int s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "invalid integer %S" s)

let map_result f l =
  List.fold_right
    (fun x acc ->
      match acc, f x with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok tl, Ok v -> Ok (v :: tl))
    l (Ok [])

let set spec key values =
  let ( let* ) = Stdlib.Result.bind in
  let values = split_values values in
  let one () =
    match values with
    | [ x ] -> Ok x
    | _ -> Error (Printf.sprintf "%s takes one value" key)
  in
  match String.lowercase_ascii key with
  | "circuits" ->
    if values = [] then Error "circuits: empty list"
    else
      (* canonical (upper-case) names so job ids don't depend on the
         spelling in the spec *)
      Ok { spec with circuits = List.map String.uppercase_ascii values }
  | "methods" ->
    let* ms = map_result parse_method values in
    Ok { spec with methods = ms }
  | "seeds" ->
    let* ss = map_result parse_int values in
    Ok { spec with seeds = ss }
  | "module-sizes" ->
    let* zs = map_result parse_size values in
    Ok { spec with module_sizes = zs }
  | "max-generations" ->
    let* x = one () in
    let* g = parse_int x in
    Ok { spec with max_generations = Some g }
  | "timeout" -> begin
    let* x = one () in
    match float_of_string_opt x with
    | Some f -> Ok { spec with timeout = Some f }
    | None -> Error (Printf.sprintf "invalid timeout %S" x)
  end
  | "seed-reference-sizes" -> begin
    let* x = one () in
    match bool_of_string_opt (String.lowercase_ascii x) with
    | Some b -> Ok { spec with seed_reference_sizes = b }
    | None -> Error (Printf.sprintf "invalid boolean %S" x)
  end
  | _ -> Error (Printf.sprintf "unknown key %S" key)

let parse text =
  let ( let* ) = Stdlib.Result.bind in
  let spec = ref default in
  let parse_line _ line =
    match String.index_opt line '=' with
    | None -> Io.reject "expected key = values"
    | Some i -> begin
      let key = strip (String.sub line 0 i) in
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      match set !spec key v with
      | Ok s -> spec := s
      | Error m -> Io.reject m
    end
  in
  let* () = Io.iter_lines text parse_line in
  let* () = Stdlib.Result.map_error (fun m -> Io_error.make m) (validate !spec) in
  Ok !spec

let parse_file path = Io.parse_file path parse

let to_string t =
  let b = Buffer.create 256 in
  let line key values = Buffer.add_string b (key ^ " = " ^ values ^ "\n") in
  line "circuits" (String.concat ", " t.circuits);
  line "methods"
    (String.concat ", " (List.map Pipeline.method_to_string t.methods));
  line "seeds" (String.concat ", " (List.map string_of_int t.seeds));
  line "module-sizes"
    (String.concat ", "
       (List.map
          (function None -> "default" | Some s -> string_of_int s)
          t.module_sizes));
  Option.iter (fun g -> line "max-generations" (string_of_int g)) t.max_generations;
  Option.iter (fun s -> line "timeout" (Printf.sprintf "%g" s)) t.timeout;
  line "seed-reference-sizes" (string_of_bool t.seed_reference_sizes);
  Buffer.contents b
