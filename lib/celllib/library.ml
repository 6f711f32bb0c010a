module Gate = Iddq_netlist.Gate

type t = {
  name : string;
  technology : Technology.t;
  cells : Cell.t array; (* indexed by gate kind tag *)
}

let kind_index = function
  | Gate.And -> 0
  | Gate.Nand -> 1
  | Gate.Or -> 2
  | Gate.Nor -> 3
  | Gate.Xor -> 4
  | Gate.Xnor -> 5
  | Gate.Not -> 6
  | Gate.Buff -> 7

let num_kinds = List.length Gate.all_kinds

let check_cell kind (c : Cell.t) =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let pos name v =
    if v <= 0.0 then err "%s: %s must be positive" (Gate.to_string kind) name
    else Ok ()
  in
  let ( let* ) r f = Result.bind r f in
  let* () = pos "peak_current" c.Cell.peak_current in
  let* () = pos "leakage" c.Cell.leakage in
  let* () = pos "delay" c.Cell.delay in
  let* () = pos "drive_resistance" c.Cell.drive_resistance in
  let* () = pos "output_capacitance" c.Cell.output_capacitance in
  let* () = pos "rail_capacitance" c.Cell.rail_capacitance in
  pos "area" c.Cell.area

let make ?(name = "library") ~technology ~cells () =
  let ( let* ) r f = Result.bind r f in
  let* () = Technology.validate technology in
  let slots = Array.make num_kinds None in
  let rec fill = function
    | [] -> Ok ()
    | (kind, cell) :: rest ->
      let i = kind_index kind in
      if slots.(i) <> None then
        Error (Printf.sprintf "kind %s characterized twice" (Gate.to_string kind))
      else begin
        let* () = check_cell kind cell in
        slots.(i) <- Some cell;
        fill rest
      end
  in
  let* () = fill cells in
  let missing =
    List.filter (fun k -> slots.(kind_index k) = None) Gate.all_kinds
  in
  match missing with
  | k :: _ -> Error (Printf.sprintf "kind %s not characterized" (Gate.to_string k))
  | [] ->
    let cells =
      Array.map (function Some c -> c | None -> assert false) slots
    in
    Ok { name; technology; cells }

let name t = t.name
let technology t = t.technology
let cell t kind = t.cells.(kind_index kind)
let cell_for t kind ~fanin = Cell.scale_for_fanin (cell t kind) fanin

let with_technology t technology =
  let cells = List.map (fun k -> (k, cell t k)) Gate.all_kinds in
  make ~name:t.name ~technology ~cells ()

(* Representative 1 um / 5 V CMOS values.  Leakage is calibrated so
   that the paper's Table-1 module counts keep discriminability >= 10
   at a 1 uA threshold (~0.15 nA mean gate leakage, see DESIGN.md). *)
let default_cells =
  let ns = 1.0e-9 and ma = 1.0e-3 and na = 1.0e-9 and pf = 1.0e-12 in
  let cell ~ipk ~leak ~d ~rg ~cg ~crail ~area =
    {
      Cell.peak_current = ipk *. ma;
      leakage = leak *. na;
      delay = d *. ns;
      drive_resistance = rg;
      output_capacitance = cg *. pf;
      rail_capacitance = crail *. pf;
      area;
    }
  in
  [
    (Gate.Nand, cell ~ipk:0.6 ~leak:0.12 ~d:0.8 ~rg:4200.0 ~cg:0.18 ~crail:0.05 ~area:4.0);
    (Gate.Nor, cell ~ipk:0.7 ~leak:0.14 ~d:0.9 ~rg:4600.0 ~cg:0.20 ~crail:0.05 ~area:4.0);
    (Gate.And, cell ~ipk:0.8 ~leak:0.18 ~d:1.1 ~rg:4200.0 ~cg:0.20 ~crail:0.07 ~area:6.0);
    (Gate.Or, cell ~ipk:0.8 ~leak:0.18 ~d:1.1 ~rg:4600.0 ~cg:0.22 ~crail:0.07 ~area:6.0);
    (Gate.Xor, cell ~ipk:1.2 ~leak:0.25 ~d:1.6 ~rg:5200.0 ~cg:0.30 ~crail:0.10 ~area:10.0);
    (Gate.Xnor, cell ~ipk:1.2 ~leak:0.25 ~d:1.7 ~rg:5200.0 ~cg:0.30 ~crail:0.10 ~area:10.0);
    (Gate.Not, cell ~ipk:0.4 ~leak:0.08 ~d:0.5 ~rg:3600.0 ~cg:0.12 ~crail:0.03 ~area:2.0);
    (Gate.Buff, cell ~ipk:0.5 ~leak:0.10 ~d:0.6 ~rg:3600.0 ~cg:0.14 ~crail:0.04 ~area:3.0);
  ]

let default =
  match make ~name:"cmos1u" ~technology:Technology.default ~cells:default_cells () with
  | Ok t -> t
  | Error e -> failwith ("Library.default: " ^ e)

let pp fmt t =
  Format.fprintf fmt "library %s: %a@." t.name Technology.pp t.technology;
  List.iter
    (fun k ->
      Format.fprintf fmt "  %-4s %a@." (Gate.to_string k) Cell.pp (cell t k))
    Gate.all_kinds
