module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate
module Scoap = Iddq_analysis.Scoap
module Stuck_at = Iddq_defects.Stuck_at
module Rng = Iddq_util.Rng

type t3 = F | T | U

let t3_not = function F -> T | T -> F | U -> U

let t3_and a b =
  match a, b with
  | F, _ | _, F -> F
  | T, T -> T
  | U, (T | U) | T, U -> U

let t3_or a b =
  match a, b with
  | T, _ | _, T -> T
  | F, F -> F
  | U, (F | U) | F, U -> U

let t3_xor a b =
  match a, b with
  | U, _ | _, U -> U
  | T, T | F, F -> F
  | T, F | F, T -> T

let eval3 kind inputs =
  let reduce f init = Array.fold_left f init inputs in
  match kind with
  | Gate.And -> reduce t3_and T
  | Gate.Nand -> t3_not (reduce t3_and T)
  | Gate.Or -> reduce t3_or F
  | Gate.Nor -> t3_not (reduce t3_or F)
  | Gate.Xor -> reduce t3_xor F
  | Gate.Xnor -> t3_not (reduce t3_xor F)
  | Gate.Not -> t3_not inputs.(0)
  | Gate.Buff -> inputs.(0)

type result = Test of bool option array | Untestable | Aborted

(* Per-implication state: good and faulty three-valued node values. *)
type sims = { good : t3 array; faulty : t3 array }

let simulate c fault assignment =
  let n = Circuit.num_nodes c in
  let good = Array.make n U and faulty = Array.make n U in
  Array.blit assignment 0 good 0 (Array.length assignment);
  Array.blit assignment 0 faulty 0 (Array.length assignment);
  (* stuck primary input (stem fault on an input) *)
  (match fault with
  | Stuck_at.Stem (id, v) when Circuit.is_input c id ->
    faulty.(id) <- (if v then T else F)
  | Stuck_at.Stem _ | Stuck_at.Pin _ -> ());
  Circuit.iter_gates c (fun g kind fanins ->
      let id = Circuit.node_of_gate c g in
      good.(id) <- eval3 kind (Array.map (fun src -> good.(src)) fanins);
      let faulty_inputs =
        Array.mapi
          (fun pin src ->
            match fault with
            | Stuck_at.Pin { gate; pin = p; value } when gate = id && p = pin ->
              if value then T else F
            | Stuck_at.Pin _ | Stuck_at.Stem _ -> faulty.(src))
          fanins
      in
      let value = eval3 kind faulty_inputs in
      faulty.(id) <-
        (match fault with
        | Stuck_at.Stem (f, v) when f = id -> if v then T else F
        | Stuck_at.Stem _ | Stuck_at.Pin _ -> value));
  { good; faulty }

(* The net whose good value must differ from the stuck value for the
   fault to be activated, and that value. *)
let activation_objective c fault =
  match fault with
  | Stuck_at.Stem (id, v) -> (id, not v)
  | Stuck_at.Pin { gate; pin; value } -> begin
    match Circuit.node c gate with
    | Circuit.Input -> invalid_arg "Podem: pin fault on an input node"
    | Circuit.Gate (_, fanins) -> (fanins.(pin), not value)
  end

(* For a pin fault the error is born inside the reading gate, not on
   the site net itself. *)
let fault_gate = function
  | Stuck_at.Stem _ -> None
  | Stuck_at.Pin { gate; _ } -> Some gate

let error_at net sims = sims.good.(net) <> U && sims.faulty.(net) <> U
                        && sims.good.(net) <> sims.faulty.(net)

let combined_x net sims = sims.good.(net) = U || sims.faulty.(net) = U

let error_at_output c sims =
  Array.exists (fun id -> error_at id sims) (Circuit.outputs c)

(* Gates with an error on some input and an X output; for a pin
   fault, the excited faulty gate itself belongs to the frontier. *)
let d_frontier c sims ~excited_fault_gate =
  let frontier = ref [] in
  Circuit.iter_gates c (fun g _ fanins ->
      let id = Circuit.node_of_gate c g in
      if
        combined_x id sims
        && (Array.exists (fun src -> error_at src sims) fanins
           || excited_fault_gate = Some id)
      then frontier := g :: !frontier);
  List.rev !frontier

(* Is there a forward path of combined-X nets from some frontier gate
   to a primary output? *)
let x_path_exists c sims frontier =
  let seen = Hashtbl.create 64 in
  let rec walk id =
    if Hashtbl.mem seen id then false
    else begin
      Hashtbl.replace seen id ();
      if not (combined_x id sims) then false
      else if Circuit.is_output c id then true
      else Array.exists walk (Circuit.fanouts c id)
    end
  in
  List.exists (fun g -> walk (Circuit.node_of_gate c g)) frontier

(* controlling / non-controlling values per kind *)
let noncontrolling = function
  | Gate.And | Gate.Nand -> Some true
  | Gate.Or | Gate.Nor -> Some false
  | Gate.Not | Gate.Buff | Gate.Xor | Gate.Xnor -> None

let inverts = function
  | Gate.Nand | Gate.Nor | Gate.Not | Gate.Xnor -> true
  | Gate.And | Gate.Or | Gate.Buff | Gate.Xor -> false

(* Backtrace an objective (net, value) to an unassigned primary input,
   choosing at each gate the X input that is cheapest to set
   (SCOAP-guided), flipping the target value through inversions. *)
let backtrace c scoap sims net value =
  let rec walk id value =
    if Circuit.is_input c id then
      if sims.good.(id) = U then Some (id, value) else None
    else begin
      let kind = Circuit.gate_kind c id in
      let fanins =
        match Circuit.node c id with
        | Circuit.Input -> [||]
        | Circuit.Gate (_, fi) -> fi
      in
      let next_value = if inverts kind then not value else value in
      (* pick the X input with the cheapest controllability toward
         [next_value]; for parity gates any X input works *)
      let cost src =
        if next_value then Scoap.cc1 scoap src else Scoap.cc0 scoap src
      in
      let best = ref (-1) and best_cost = ref max_int in
      Array.iter
        (fun src ->
          if sims.good.(src) = U && cost src < !best_cost then begin
            best := src;
            best_cost := cost src
          end)
        fanins;
      if !best < 0 then None else walk !best next_value
    end
  in
  walk net value

let generate ?(max_backtracks = 2000) c fault =
  let scoap = Scoap.compute c in
  let ni = Circuit.num_inputs c in
  let assignment = Array.make ni U in
  (* decision stack: (pi, first_value, alternative_tried) *)
  let stack = ref [] in
  let backtracks = ref 0 in
  let site, site_value = activation_objective c fault in
  let exception Done of result in
  try
    let rec step () =
      let sims = simulate c fault assignment in
      if error_at_output c sims then begin
        raise
          (Done
             (Test
                (Array.map
                   (function T -> Some true | F -> Some false | U -> None)
                   assignment)))
      end;
      (* conflict checks; "excited" = the site carries the activating
         good value (for stem faults this makes the site itself carry
         the error; for pin faults the error is born in the gate) *)
      let target = if site_value then T else F in
      let excited = sims.good.(site) = target in
      let site_blocked = sims.good.(site) <> U && not excited in
      let excited_fault_gate = if excited then fault_gate fault else None in
      let frontier = d_frontier c sims ~excited_fault_gate in
      let dead =
        site_blocked
        || (excited && frontier = [] && not (error_at_output c sims))
        || (excited && frontier <> [] && not (x_path_exists c sims frontier))
      in
      if dead then backtrack ()
      else begin
        (* objective *)
        let objective =
          if not excited then Some (site, site_value)
          else begin
            (* advance the D-frontier: set an X input of a frontier
               gate to the gate's non-controlling value *)
            let rec pick = function
              | [] -> None
              | g :: rest -> begin
                let id = Circuit.node_of_gate c g in
                let kind = Circuit.gate_kind c id in
                let fanins =
                  match Circuit.node c id with
                  | Circuit.Input -> [||]
                  | Circuit.Gate (_, fi) -> fi
                in
                let x_input =
                  Array.fold_left
                    (fun acc src ->
                      if acc = None && sims.good.(src) = U then Some src else acc)
                    None fanins
                in
                match x_input with
                | None -> pick rest
                | Some src ->
                  let v =
                    match noncontrolling kind with
                    | Some v -> v
                    | None -> true (* parity gates: either value works *)
                  in
                  Some (src, v)
              end
            in
            pick frontier
          end
        in
        match objective with
        | None -> backtrack ()
        | Some (net, value) -> begin
          match backtrace c scoap sims net value with
          | None -> backtrack ()
          | Some (pi, v) ->
            assignment.(pi) <- (if v then T else F);
            stack := (pi, v, false) :: !stack;
            step ()
        end
      end
    and backtrack () =
      incr backtracks;
      if !backtracks > max_backtracks then raise (Done Aborted);
      let rec unwind () =
        match !stack with
        | [] -> raise (Done Untestable)
        | (pi, _, true) :: rest ->
          assignment.(pi) <- U;
          stack := rest;
          unwind ()
        | (pi, v, false) :: rest ->
          assignment.(pi) <- (if not v then T else F);
          stack := (pi, not v, true) :: rest
      in
      unwind ();
      step ()
    in
    step ()
  with Done r -> r

let concretize ~rng cube =
  Array.map (function Some v -> v | None -> Rng.bool rng) cube
