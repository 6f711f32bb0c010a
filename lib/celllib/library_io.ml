module Gate = Iddq_netlist.Gate
module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error

(* line-oriented INI subset: [section] headers and key = value pairs *)
let parse_sections text =
  let sections = ref [] in
  (* (name, (key, value) list) in reverse order *)
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some (name, entries) -> sections := (name, List.rev entries) :: !sections
  in
  let parse_line lineno line =
    if line.[0] = '[' then begin
      if line.[String.length line - 1] <> ']' then
        Io.reject "unterminated section header";
      close ();
      current := Some (String.trim (String.sub line 1 (String.length line - 2)), [])
    end
    else begin
      match String.index_opt line '=' with
      | None -> Io.reject "expected 'key = value'"
      | Some eq -> begin
        let key = String.trim (String.sub line 0 eq) in
        let value =
          String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
        in
        match !current with
        | None -> Io.reject "entry before any [section]"
        | Some (name, entries) -> current := Some (name, (key, lineno, value) :: entries)
      end
    end
  in
  Result.map
    (fun () ->
      close ();
      List.rev !sections)
    (Io.iter_lines text parse_line)

let float_field entries section key =
  match List.find_opt (fun (k, _, _) -> k = key) entries with
  | None ->
    Error (Io_error.make (Printf.sprintf "section [%s]: missing %s" section key))
  | Some (_, lineno, v) -> begin
    match float_of_string_opt v with
    | Some f -> Ok f
    | None ->
      Error
        (Io_error.make ~line:lineno (Printf.sprintf "%s is not a number" key))
  end

let parse_string ?(name = "library") text =
  let ( let* ) r f = Result.bind r f in
  let* sections = parse_sections text in
  (* technology *)
  let* technology =
    match List.assoc_opt "technology" sections with
    | None -> Ok Technology.default
    | Some entries ->
      let field key fallback =
        if List.exists (fun (k, _, _) -> k = key) entries then
          float_field entries "technology" key
        else Ok fallback
      in
      let d = Technology.default in
      let* vdd = field "vdd" d.Technology.vdd in
      let* iddq_threshold = field "iddq_threshold" d.Technology.iddq_threshold in
      let* required_discriminability =
        field "required_discriminability" d.Technology.required_discriminability
      in
      let* rail_budget = field "rail_budget" d.Technology.rail_budget in
      let* cutoff =
        field "separation_cutoff" (float_of_int d.Technology.separation_cutoff)
      in
      let* sensor_area_fixed = field "sensor_area_fixed" d.Technology.sensor_area_fixed in
      let* sensor_area_conductance =
        field "sensor_area_conductance" d.Technology.sensor_area_conductance
      in
      let* sensor_rail_capacitance =
        field "sensor_rail_capacitance" d.Technology.sensor_rail_capacitance
      in
      let* settling_decades = field "settling_decades" d.Technology.settling_decades in
      Ok
        {
          Technology.vdd;
          iddq_threshold;
          required_discriminability;
          rail_budget;
          separation_cutoff = int_of_float cutoff;
          sensor_area_fixed;
          sensor_area_conductance;
          sensor_rail_capacitance;
          settling_decades;
        }
  in
  (* cells *)
  let rec build_cells acc = function
    | [] -> Ok (List.rev acc)
    | kind :: rest -> begin
      let section = Gate.to_string kind in
      match List.assoc_opt section sections with
      | None -> Error (Io_error.make (Printf.sprintf "missing section [%s]" section))
      | Some entries ->
        let* peak_current = float_field entries section "peak_current" in
        let* leakage = float_field entries section "leakage" in
        let* delay = float_field entries section "delay" in
        let* drive_resistance = float_field entries section "drive_resistance" in
        let* output_capacitance = float_field entries section "output_capacitance" in
        let* rail_capacitance = float_field entries section "rail_capacitance" in
        let* area = float_field entries section "area" in
        build_cells
          (( kind,
             {
               Cell.peak_current;
               leakage;
               delay;
               drive_resistance;
               output_capacitance;
               rail_capacitance;
               area;
             } )
          :: acc)
          rest
    end
  in
  let* cells = build_cells [] Gate.all_kinds in
  Result.map_error
    (fun m -> Io_error.make m)
    (Library.make ~name ~technology ~cells ())

let parse_file path =
  let name = Filename.remove_extension (Filename.basename path) in
  Io.parse_file path (parse_string ~name)

let to_string lib =
  let buf = Buffer.create 2048 in
  let t = Library.technology lib in
  Buffer.add_string buf (Printf.sprintf "# %s\n[technology]\n" (Library.name lib));
  Buffer.add_string buf (Printf.sprintf "vdd = %.17g\n" t.Technology.vdd);
  Buffer.add_string buf
    (Printf.sprintf "iddq_threshold = %.17g\n" t.Technology.iddq_threshold);
  Buffer.add_string buf
    (Printf.sprintf "required_discriminability = %.17g\n"
       t.Technology.required_discriminability);
  Buffer.add_string buf (Printf.sprintf "rail_budget = %.17g\n" t.Technology.rail_budget);
  Buffer.add_string buf
    (Printf.sprintf "separation_cutoff = %d\n" t.Technology.separation_cutoff);
  Buffer.add_string buf
    (Printf.sprintf "sensor_area_fixed = %.17g\n" t.Technology.sensor_area_fixed);
  Buffer.add_string buf
    (Printf.sprintf "sensor_area_conductance = %.17g\n"
       t.Technology.sensor_area_conductance);
  Buffer.add_string buf
    (Printf.sprintf "sensor_rail_capacitance = %.17g\n"
       t.Technology.sensor_rail_capacitance);
  Buffer.add_string buf
    (Printf.sprintf "settling_decades = %.17g\n" t.Technology.settling_decades);
  List.iter
    (fun kind ->
      let c = Library.cell lib kind in
      Buffer.add_string buf (Printf.sprintf "\n[%s]\n" (Gate.to_string kind));
      Buffer.add_string buf (Printf.sprintf "peak_current = %.17g\n" c.Cell.peak_current);
      Buffer.add_string buf (Printf.sprintf "leakage = %.17g\n" c.Cell.leakage);
      Buffer.add_string buf (Printf.sprintf "delay = %.17g\n" c.Cell.delay);
      Buffer.add_string buf
        (Printf.sprintf "drive_resistance = %.17g\n" c.Cell.drive_resistance);
      Buffer.add_string buf
        (Printf.sprintf "output_capacitance = %.17g\n" c.Cell.output_capacitance);
      Buffer.add_string buf
        (Printf.sprintf "rail_capacitance = %.17g\n" c.Cell.rail_capacitance);
      Buffer.add_string buf (Printf.sprintf "area = %.17g\n" c.Cell.area))
    Gate.all_kinds;
  Buffer.contents buf

let write_file path lib = Io.write_file_atomic path (to_string lib)
